package offramps

import (
	"context"
	"embed"
	"fmt"
	"strings"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/flaw3d"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// specFiles holds the committed spec files. Table I, Table II, Figure 4,
// Drift, TapSides and SelfAttest are each one of them: the experiment
// is the file, and its entry point only renders the report.
//
//go:embed examples/specs/*.json
var specFiles embed.FS

// runExperiment is the one way a paper experiment reaches the simulator:
// its committed spec file loads as cmd/suite loads it, runs at the given
// base seed through the campaign's suite executor, and render — a pure
// function of the suite report — turns the rows into the experiment's
// report. A failed scenario or comparison fails the experiment.
func runExperiment[R any](c Campaign, file string, seed uint64, render func(*SuiteReport) (R, error)) (R, error) {
	suite, err := loadSuiteOrGrid(specFiles.ReadFile, "examples/specs/"+file, false)
	if err != nil {
		var zero R
		return zero, err
	}
	suite.BaseSeed = seed
	return runSuite(c, suite, render)
}

// runSuite executes suite and renders its report, failing on the first
// scenario or comparison error.
func runSuite[R any](c Campaign, suite *SuiteSpec, render func(*SuiteReport) (R, error)) (R, error) {
	var zero R
	rep, err := c.RunSuite(context.Background(), suite)
	if err != nil {
		return zero, err
	}
	if err := firstScenarioErr(rep.Results); err != nil {
		return zero, err
	}
	for _, cmp := range rep.Comparisons {
		if cmp.Err != nil {
			return zero, fmt.Errorf("offramps: compare %s vs %s: %w", cmp.Golden, cmp.Suspect, cmp.Err)
		}
	}
	return render(rep)
}

// results returns the named scenarios' results, in the order named.
// Renderers look rows up by name, so the order of a spec file's
// scenarios never matters, and a missing name is an error.
func (r *SuiteReport) results(names ...string) ([]*Result, error) {
	out := make([]*Result, len(names))
	for i, name := range names {
		for _, res := range r.Results {
			if res.Name == name {
				out[i] = res.Result
			}
		}
		if out[i] == nil {
			return nil, fmt.Errorf("offramps: suite %q has no result for scenario %q", r.Suite, name)
		}
	}
	return out, nil
}

// reports returns the reports of the comparisons keyed by golden,
// suspect and their taps, in the order asked.
func (r *SuiteReport) reports(keys ...CompareSpec) ([]*detect.Report, error) {
	out := make([]*detect.Report, len(keys))
	for i, k := range keys {
		for _, c := range r.Comparisons {
			if c.Golden == k.Golden && c.GoldenTap == k.GoldenTap && c.Suspect == k.Suspect && c.SuspectTap == k.SuspectTap {
				out[i] = c.Report
			}
		}
		if out[i] == nil {
			return nil, fmt.Errorf("offramps: suite %q has no comparison of %s (tap %q) against %s", r.Suite, k.Suspect, k.SuspectTap, k.Golden)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table I — the nine-trojan suite

// TableIRow is one evaluated trojan.
type TableIRow struct {
	ID       string
	Kind     string // PM / DoS / D
	Scenario string
	Effect   string // the paper's described effect
	// Measured outcome.
	Result   *Result
	Diff     printer.Diff // part vs golden (zero value for DoS/D trojans)
	Observed bool         // did the measured outcome match the effect?
	Measured string       // one-line measured summary
}

// TableIReport is the full Table I reproduction.
type TableIReport struct {
	Golden *Result
	Rows   []TableIRow
}

// Format renders the table.
func (r *TableIReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I — Trojans evaluated using OFFRAMPS (golden: %s)\n", r.Golden.Quality)
	fmt.Fprintf(&sb, "%-4s %-4s %-18s %-10s %s\n", "ID", "Type", "Scenario", "Observed", "Measured effect")
	for _, row := range r.Rows {
		obs := "no"
		if row.Observed {
			obs = "YES"
		}
		fmt.Fprintf(&sb, "%-4s %-4s %-18s %-10s %s\n", row.ID, row.Kind, row.Scenario, obs, row.Measured)
	}
	return sb.String()
}

// paperEffects maps trojan IDs to Table I's effect descriptions.
var paperEffects = map[string]string{
	"T1": "Randomly changes steps from X or Y axis during print",
	"T2": "Constant over / under extrusion per print",
	"T3": "Increases or decreases filament retraction during Y steps",
	"T4": "Small shift along X and Y axis on random Z layer increments",
	"T5": "Layer delamination via Z-layer shift",
	"T6": "Denial of service via disabling D8/D10 heating element power",
	"T7": "Forcing thermal runaway and permanently enabling heating elements",
	"T8": "Arbitrarily deactivating stepper motors via EN signals",
	"T9": "Arbitrarily reducing part fan speed mid-print",
}

// TableI reproduces the paper's Table I: print the test part once clean
// (T0) and once under each trojan, by executing examples/specs/table1.json,
// and verify each trojan's physical effect on the part or machine.
func TableI(c Campaign, seed uint64) (*TableIReport, error) {
	return runExperiment(c, "table1.json", seed, renderTableI)
}

// renderTableI judges each trojan's print of a table1.json report
// against the T0 golden, in Table I order.
func renderTableI(rep *SuiteReport) (*TableIReport, error) {
	res, err := rep.results(append([]string{"T0"}, trojan.SuiteIDs...)...)
	if err != nil {
		return nil, err
	}
	golden := res[0]
	if !golden.Completed {
		return nil, fmt.Errorf("offramps: golden print halted: %w", golden.HaltError)
	}
	report := &TableIReport{Golden: golden}
	for i, tr := range trojan.Suite(rep.BaseSeed) {
		row := TableIRow{
			ID:       tr.ID(),
			Kind:     tr.Kind().String(),
			Scenario: tr.Scenario(),
			Effect:   paperEffects[tr.ID()],
			Result:   res[i+1],
			Diff:     res[i+1].Part.Compare(golden.Part, 1.0),
		}
		row.Observed, row.Measured = judgeTrojan(tr.ID(), golden, res[i+1], row.Diff)
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// judgeTrojan decides whether the trojan's Table I effect materialized.
func judgeTrojan(id string, golden, res *Result, diff printer.Diff) (bool, string) {
	switch id {
	case "T1":
		ok := diff.MaxCentroidShift > 0.25
		return ok, fmt.Sprintf("max layer centroid shift %.2f mm vs golden", diff.MaxCentroidShift)
	case "T2":
		ok := diff.FilamentRatio > 0.40 && diff.FilamentRatio < 0.60
		return ok, fmt.Sprintf("filament ratio %.2f (target 0.50)", diff.FilamentRatio)
	case "T3":
		ok := diff.FilamentRatio > 1.01
		return ok, fmt.Sprintf("filament ratio %.3f (over-extrusion)", diff.FilamentRatio)
	case "T4":
		ok := diff.MaxCentroidShift > 0.1
		return ok, fmt.Sprintf("max layer centroid shift %.2f mm", diff.MaxCentroidShift)
	case "T5":
		ok := res.Quality.MaxZGap > golden.Quality.MaxZGap*1.5
		return ok, fmt.Sprintf("max Z gap %.2f mm (golden %.2f)", res.Quality.MaxZGap, golden.Quality.MaxZGap)
	case "T6":
		ok := !res.Completed && res.HaltError != nil &&
			strings.Contains(res.HaltError.Error(), "thermal")
		return ok, fmt.Sprintf("firmware halted: %v", res.HaltError)
	case "T7":
		ok := res.HotendExceededSafe
		return ok, fmt.Sprintf("hotend peaked at %.0f°C (safe limit 260), firmware kill bypassed", res.PeakHotendTemp)
	case "T8":
		lost := uint64(0)
		for _, a := range signal.Axes {
			lost += res.StepsLost[a]
		}
		ok := lost > 0 && diff.MaxCentroidShift > 0.25
		return ok, fmt.Sprintf("%d steps lost, centroid shift %.2f mm", lost, diff.MaxCentroidShift)
	case "T9":
		ok := res.PeakFanDuty < golden.PeakFanDuty*0.5
		return ok, fmt.Sprintf("peak fan duty %.2f (golden %.2f)", res.PeakFanDuty, golden.PeakFanDuty)
	default:
		return false, "unknown trojan"
	}
}

// ---------------------------------------------------------------------------
// Table II — Flaw3D trojan detection

// TableIIRow is one evaluated Flaw3D test case.
type TableIIRow struct {
	Case     flaw3d.TestCase
	Report   detect.Report
	Detected bool
}

// TableIIReport is the full Table II reproduction, plus a clean control
// print that must NOT be flagged (the margin's false-positive check).
type TableIIReport struct {
	Rows               []TableIIRow
	CleanControl       detect.Report
	CleanFalsePositive bool
}

// Format renders the table.
func (r *TableIIReport) Format() string {
	var sb strings.Builder
	fmt.Fprintln(&sb, "Table II — Flaw3D Trojans")
	fmt.Fprintf(&sb, "%-6s %-12s %-10s %-9s %s\n", "Case", "Type", "Value", "Detected", "(mismatches, largest %)")
	for _, row := range r.Rows {
		det := "✗"
		if row.Detected {
			det = "✓"
		}
		fmt.Fprintf(&sb, "%-6d %-12s %-10v %-9s (%d, %.2f%%)\n",
			row.Case.Num, row.Case.Type, row.Case.Value, det,
			row.Report.NumMismatches, row.Report.LargestPercent)
	}
	fp := "no false positive"
	if r.CleanFalsePositive {
		fp = "FALSE POSITIVE"
	}
	fmt.Fprintf(&sb, "clean control: %s (%d mismatches, largest %.2f%%)\n",
		fp, r.CleanControl.NumMismatches, r.CleanControl.LargestPercent)
	return sb.String()
}

// TableII reproduces the paper's Table II: emulate the eight Flaw3D
// trojans by tampering the G-code (as the paper's Python script does),
// print each on the OFFRAMPS testbed in parallel, capture the pulse
// profiles, and replay each through the golden detector. The whole
// experiment — prints and comparisons — is the Table II grid,
// examples/specs/grid_tableii.json.
func TableII(c Campaign, seed uint64) (*TableIIReport, error) {
	return runExperiment(c, "grid_tableii.json", seed, renderTableII)
}

// renderTableII reads one row per Flaw3D case, in Table II order, and
// the clean control off a grid_tableii.json report's comparisons.
func renderTableII(rep *SuiteReport) (*TableIIReport, error) {
	var keys []CompareSpec
	cases := flaw3d.TableII()
	for _, tc := range cases {
		keys = append(keys, CompareSpec{Golden: "golden", Suspect: fmt.Sprintf("flaw3d-%d", tc.Num)})
	}
	cmps, err := rep.reports(append(keys, CompareSpec{Golden: "golden", Suspect: "clean-control"})...)
	if err != nil {
		return nil, err
	}
	ctl := cmps[len(cases)]
	report := &TableIIReport{CleanControl: *ctl, CleanFalsePositive: ctl.TrojanLikely}
	for i, tc := range cases {
		report.Rows = append(report.Rows, TableIIRow{Case: tc, Report: *cmps[i], Detected: cmps[i].TrojanLikely})
	}
	return report, nil
}

// ---------------------------------------------------------------------------
// Figure 4 — detection output excerpt

// Figure4Report reproduces the paper's Figure 4: excerpts of the golden
// and trojaned transaction streams around the first divergence, plus the
// detection tool's output.
type Figure4Report struct {
	ExcerptStart  uint32
	GoldenExcerpt []capture.Transaction
	TrojanExcerpt []capture.Transaction
	Report        detect.Report
}

// Format renders the three panes of Figure 4.
func (r *Figure4Report) Format() string {
	var sb strings.Builder
	pane := func(title string, txs []capture.Transaction) {
		fmt.Fprintf(&sb, "%s\n", title)
		fmt.Fprintln(&sb, "Index, X, Y, Z, E")
		for _, t := range txs {
			fmt.Fprintf(&sb, "%d, %d, %d, %d, %d\n", t.Index, t.X, t.Y, t.Z, t.E)
		}
		fmt.Fprintln(&sb)
	}
	pane("(a) Selection of transactions from the golden reference.", r.GoldenExcerpt)
	pane("(b) Selection of transactions from Flaw3D Trojan print.", r.TrojanExcerpt)
	fmt.Fprintln(&sb, "(c) Output of the Trojan detection tool:")
	sb.WriteString(r.Report.Format())
	return sb.String()
}

// Figure4 reproduces the paper's Figure 4 using the same trojan the paper
// shows — Table II test case 7, which "relocates material every 20
// movements" — by executing examples/specs/figure4.json.
func Figure4(c Campaign, seed uint64) (*Figure4Report, error) {
	return runExperiment(c, "figure4.json", seed, renderFigure4)
}

// renderFigure4 excerpts both captures of a figure4.json report around
// the comparison's first mismatch (the comparison ran, so both captures
// are non-empty).
func renderFigure4(srep *SuiteReport) (*Figure4Report, error) {
	res, err := srep.results("golden", "relocation")
	if err != nil {
		return nil, err
	}
	cmps, err := srep.reports(CompareSpec{Golden: "golden", Suspect: "relocation"})
	if err != nil {
		return nil, err
	}
	golden, suspect, rep := res[0].Recording, res[1].Recording, *cmps[0]

	out := &Figure4Report{Report: rep}
	// Excerpt 6 transactions around the first mismatch, like the paper.
	start := 0
	if len(rep.Mismatches) > 0 {
		start = int(rep.Mismatches[0].Index) - 2
		if start < 0 {
			start = 0
		}
	}
	out.ExcerptStart = uint32(start)
	for i := start; i < start+6 && i < golden.Len() && i < suspect.Len(); i++ {
		out.GoldenExcerpt = append(out.GoldenExcerpt, golden.Transactions[i])
		out.TrojanExcerpt = append(out.TrojanExcerpt, suspect.Transactions[i])
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Overhead — §V-B (propagation delay, signal envelope, no quality impact)

// OverheadReport reproduces the paper's monitoring-overhead analysis.
type OverheadReport struct {
	// MaxPropagation is the largest Arduino→RAMPS edge latency measured
	// across all control pins during a live print (paper: 12.923 ns).
	MaxPropagation sim.Time
	// SlowestPin is the pin on which it occurred.
	SlowestPin string
	// LineStats summarizes every STEP line's envelope (paper: < 20 kHz,
	// ≥ 1 µs pulses).
	LineStats []signal.Stats
	// MaxStepFrequency across all step lines, Hz.
	MaxStepFrequency float64
	// MinPulseWidth across all step lines.
	MinPulseWidth sim.Time
	// Quality with the MITM inline vs with jumpers in direct mode.
	QualityMITM   printer.Quality
	QualityDirect printer.Quality
	// FilamentRatio MITM/direct — 1.0 means no print impact.
	FilamentRatio float64
}

// Format renders the overhead report.
func (r *OverheadReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Monitoring overhead (§V-B)\n")
	fmt.Fprintf(&sb, "max propagation delay: %v on %s (paper: 12.923 ns on Y_DIR)\n", r.MaxPropagation, r.SlowestPin)
	fmt.Fprintf(&sb, "max step frequency: %.1f Hz (paper envelope: < 20 kHz)\n", r.MaxStepFrequency)
	fmt.Fprintf(&sb, "min pulse width: %v (paper envelope: ≥ 1 µs)\n", r.MinPulseWidth)
	fmt.Fprintf(&sb, "quality with MITM:   %s\n", r.QualityMITM)
	fmt.Fprintf(&sb, "quality direct:      %s\n", r.QualityDirect)
	fmt.Fprintf(&sb, "filament ratio MITM/direct: %.4f\n", r.FilamentRatio)
	for _, s := range r.LineStats {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	return sb.String()
}

// Overhead reproduces §V-B: measure the MITM's propagation delay and the
// control-signal envelope during a real print, and show the detection
// hardware has no effect on print quality by printing the same part with
// the MITM inline and with jumpers in direct mode. It measures the
// simulator itself rather than a scenario, so it builds and instruments
// its two testbeds directly instead of running a suite.
func Overhead(seed uint64) (*OverheadReport, error) {
	prog, err := TestPart()
	if err != nil {
		return nil, err
	}
	mitm, err := NewTestbed(WithSeed(seed))
	if err != nil {
		return nil, err
	}
	direct, err := NewTestbed(WithSeed(seed), WithoutMITM())
	if err != nil {
		return nil, err
	}

	// Instrument the MITM print: a step-line recorder plus latency probes
	// that timestamp each Arduino-side edge and match it to the next
	// RAMPS-side edge on the same pin.
	report := &OverheadReport{}
	recorder := signal.NewRecorder(mitm.Arduino, signal.PinXStep, signal.PinYStep, signal.PinZStep, signal.PinEStep)
	for _, pin := range signal.ControlPins {
		var pendingAt sim.Time = -1
		mitm.Arduino.Line(pin).Watch(func(at sim.Time, _ signal.Level) {
			pendingAt = at
		})
		mitm.RAMPS.Line(pin).Watch(func(at sim.Time, _ signal.Level) {
			if pendingAt < 0 {
				return
			}
			delay := at - pendingAt
			pendingAt = -1
			if delay > report.MaxPropagation {
				report.MaxPropagation = delay
				report.SlowestPin = pin
			}
		})
	}

	resMITM, err := mitm.Run(context.Background(), prog)
	if err != nil {
		return nil, fmt.Errorf("offramps: overhead MITM print: %w", err)
	}
	resDirect, err := direct.Run(context.Background(), prog)
	if err != nil {
		return nil, fmt.Errorf("offramps: overhead direct print: %w", err)
	}

	report.QualityMITM = resMITM.Quality
	report.LineStats = recorder.AllStats()
	for _, s := range report.LineStats {
		if s.MaxFrequency > report.MaxStepFrequency {
			report.MaxStepFrequency = s.MaxFrequency
		}
		if s.MinPulseWidth > 0 && (report.MinPulseWidth == 0 || s.MinPulseWidth < report.MinPulseWidth) {
			report.MinPulseWidth = s.MinPulseWidth
		}
	}
	report.QualityDirect = resDirect.Quality
	if resDirect.Quality.TotalFilament > 0 {
		report.FilamentRatio = resMITM.Quality.TotalFilament / resDirect.Quality.TotalFilament
	}
	return report, nil
}

// ---------------------------------------------------------------------------
// Drift — §V-C (time noise stays under the 5 % margin)

// DriftReport reproduces the paper's time-noise analysis: repeated known-
// good prints of the same job drift, but never past the 5 % margin, and
// their final counts agree exactly.
type DriftReport struct {
	Runs int
	// MaxDriftPercent is the worst per-window divergence across all pairs
	// among substantial windows (golden count ≥ detect.SubstantialCount)
	// — the regime in which the paper states its 5 % bound.
	MaxDriftPercent float64
	// MaxDriftRaw includes the first few tiny-count windows after capture
	// start, where ±1 step is a double-digit relative swing (tolerated by
	// the detector's absolute guard).
	MaxDriftRaw      float64
	FinalCountsEqual bool
	FalsePositives   int // detector verdicts against known-good prints
}

// Format renders the drift report.
func (r *DriftReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Time-noise drift (§V-C): %d known-good prints\n", r.Runs)
	fmt.Fprintf(&sb, "max per-window drift: %.2f%% on substantial counts (margin: 5%%); %.2f%% raw incl. startup windows\n",
		r.MaxDriftPercent, r.MaxDriftRaw)
	fmt.Fprintf(&sb, "final counts equal: %v (0%% margin check)\n", r.FinalCountsEqual)
	fmt.Fprintf(&sb, "detector false positives: %d\n", r.FalsePositives)
	return sb.String()
}

// ---------------------------------------------------------------------------
// TapSides — the §V-D co-location limitation as a scenario axis

// TapSideReport demonstrates the paper's §V-D discussion ("both the
// attacks and defense would be co-located in the same FPGA") as a
// measurable topology experiment: the same board-injected trojan print,
// captured simultaneously at both tap points, detected only where the tap
// can see it.
//
// The trojan under test is T2 (extruder pulse masking) deliberately: the
// extruder is the one axis with no endstop, so nothing couples the
// plant's tampered physical state back into the firmware's commanded
// steps and the Arduino-side capture stays bit-identical to the golden
// for every seed. X/Y injection trojans (T1/T4) leak into the Arduino
// capture through the end-of-print G28 X park — a closed-loop homing
// whose commanded step count depends on the physically shifted carriage
// — which is physical attestation, not capture-side detection.
type TapSideReport struct {
	// TrojanID is the board-injected trojan under test.
	TrojanID string
	// ArduinoReport compares the golden capture against the trojaned
	// print's Arduino-side (input-tap) capture — the paper's rig.
	ArduinoReport detect.Report
	// RAMPSReport compares the golden capture against the trojaned
	// print's RAMPS-side (output-tap) capture.
	RAMPSReport detect.Report
	// ArduinoDetected / RAMPSDetected are the two verdicts; the paper's
	// limitation is precisely ArduinoDetected == false.
	ArduinoDetected bool
	RAMPSDetected   bool
	// Diff measures the physical damage the Arduino-side tap failed to
	// see (trojaned part vs golden part); under T2 the signature is the
	// halved filament ratio.
	Diff printer.Diff
}

// Format renders the tap-side comparison.
func (r *TapSideReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tap-side topology (§V-D): board-injected %s under golden detection\n", r.TrojanID)
	verdict := func(detected bool) string {
		if detected {
			return "TROJAN LIKELY"
		}
		return "no trojan suspected"
	}
	fmt.Fprintf(&sb, "arduino-side tap (paper rig): %s (%d mismatches, %d final) — blind to its own board\n",
		verdict(r.ArduinoDetected), r.ArduinoReport.NumMismatches, len(r.ArduinoReport.Final))
	fmt.Fprintf(&sb, "ramps-side tap:               %s (%d mismatches, %d final, largest %.2f%%)\n",
		verdict(r.RAMPSDetected), r.RAMPSReport.NumMismatches, len(r.RAMPSReport.Final), r.RAMPSReport.LargestPercent)
	fmt.Fprintf(&sb, "physical damage missed by the arduino tap: filament ratio %.2f vs golden\n",
		r.Diff.FilamentRatio)
	return sb.String()
}

// TapSides runs examples/specs/tapside.json: the golden detector misses
// a board-injected trojan when the capture taps the FPGA's input (the
// co-location blind spot the paper reproduces faithfully), and catches
// the very same dual-tapped print when the capture taps the FPGA's
// output.
func TapSides(c Campaign, seed uint64) (*TapSideReport, error) {
	return runExperiment(c, "tapside.json", seed, renderTapSides)
}

// renderTapSides reads both tap sides' verdicts off a tapside.json
// report.
func renderTapSides(srep *SuiteReport) (*TapSideReport, error) {
	res, err := srep.results("golden", "trojaned")
	if err != nil {
		return nil, err
	}
	cmps, err := srep.reports(
		CompareSpec{Golden: "golden", Suspect: "trojaned", SuspectTap: "arduino"},
		CompareSpec{Golden: "golden", Suspect: "trojaned", SuspectTap: "ramps"},
	)
	if err != nil {
		return nil, err
	}
	golden, trojaned, arduino, ramps := res[0], res[1], cmps[0], cmps[1]
	return &TapSideReport{
		TrojanID:        "T2",
		ArduinoReport:   *arduino,
		RAMPSReport:     *ramps,
		ArduinoDetected: arduino.TrojanLikely,
		RAMPSDetected:   ramps.TrojanLikely,
		Diff:            trojaned.Part.Compare(golden.Part, 1.0),
	}, nil
}

// ---------------------------------------------------------------------------
// SelfAttest — dual-tap board self-attestation (the §V-D limitation
// inverted into a golden-free defense)

// SelfAttestReport demonstrates board self-attestation: the attestation
// detector diffs the two simultaneous captures of ONE dual-tap print —
// the Arduino-side view of what the firmware commanded and the RAMPS-
// side view of what the printer received — so a board-resident trojan is
// caught in a single simulation with no golden reference and no second
// run. The same run's Arduino-side capture, checked the paper's way
// against a golden print, stays clean: the §V-D co-location blind spot
// and its defeat, measured on one and the same print.
type SelfAttestReport struct {
	// TrojanID is the board-resident trojan under test.
	TrojanID string
	// Attestation is the dual-tap attestation verdict on the trojaned
	// print — one simulation, no golden reference.
	Attestation detect.Report
	// CleanControl is the same attestation on a clean dual-tap print:
	// the false-positive check (window-boundary skew between the two
	// taps must stay under the attestation margin).
	CleanControl detect.Report
	// ArduinoView compares the trojaned run's own Arduino-side capture
	// against a separate golden print — the paper's rig, blind to the
	// board it rides on.
	ArduinoView detect.Report
	// Detected / CleanFalsePositive / ArduinoDetected are the three
	// verdicts; the experiment's claim is (true, false, false).
	Detected           bool
	CleanFalsePositive bool
	ArduinoDetected    bool
	// Diff is the physical damage the attestation caught and the
	// Arduino-only rig missed (trojaned part vs golden part).
	Diff printer.Diff
}

// Format renders the self-attestation report.
func (r *SelfAttestReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Board self-attestation: board-run %s under a dual tap\n", r.TrojanID)
	verdict := func(detected bool) string {
		if detected {
			return "TROJAN LIKELY"
		}
		return "no trojan suspected"
	}
	fmt.Fprintf(&sb, "attestation (single print, no golden): %s (%d mismatches, %d final, largest %.2f%%)\n",
		verdict(r.Detected), r.Attestation.NumMismatches, len(r.Attestation.Final), r.Attestation.LargestPercent)
	fmt.Fprintf(&sb, "attestation on a clean print:          %s (%d pairs compared)\n",
		verdict(r.CleanFalsePositive), r.CleanControl.NumCompared)
	fmt.Fprintf(&sb, "same run, arduino tap vs golden (paper rig): %s (%d mismatches, %d final) — blind to its own board\n",
		verdict(r.ArduinoDetected), r.ArduinoView.NumMismatches, len(r.ArduinoView.Final))
	fmt.Fprintf(&sb, "physical damage attested with no reference: filament ratio %.2f vs golden\n",
		r.Diff.FilamentRatio)
	return sb.String()
}

// SelfAttest runs examples/specs/attestation.json: a board-run T2 is
// detected by dual-tap self-attestation in a single print with no golden
// capture, while the paper's Arduino-side workflow reports the same
// print clean.
func SelfAttest(c Campaign, seed uint64) (*SelfAttestReport, error) {
	return runExperiment(c, "attestation.json", seed, renderSelfAttest)
}

// renderSelfAttest reads the attestation verdicts and the Arduino-side
// contrast off an attestation.json report.
func renderSelfAttest(srep *SuiteReport) (*SelfAttestReport, error) {
	res, err := srep.results("attested", "clean-attested", "golden")
	if err != nil {
		return nil, err
	}
	cmps, err := srep.reports(CompareSpec{Golden: "golden", Suspect: "attested", SuspectTap: "arduino"})
	if err != nil {
		return nil, err
	}
	attested, clean, golden, cmp := res[0], res[1], res[2], cmps[0]
	if len(attested.Detections) != 1 || len(clean.Detections) != 1 {
		return nil, fmt.Errorf("offramps: selfattest: attestation reports missing")
	}
	return &SelfAttestReport{
		TrojanID:           "T2",
		Attestation:        *attested.Detections[0],
		CleanControl:       *clean.Detections[0],
		ArduinoView:        *cmp,
		Detected:           attested.Detections[0].TrojanLikely,
		CleanFalsePositive: clean.Detections[0].TrojanLikely,
		ArduinoDetected:    cmp.TrojanLikely,
		Diff:               attested.Part.Compare(golden.Part, 1.0),
	}, nil
}

// Drift runs examples/specs/drift.json: the same job printed four
// times on stepped time-noise seeds and compared pairwise, measuring
// the worst per-window divergence, the quantity the paper bounds at 5 %
// ("This drift was, however, always less than a 5 % difference in our
// testing").
func Drift(c Campaign, seed uint64) (*DriftReport, error) {
	return runExperiment(c, "drift.json", seed, renderDrift)
}

// renderDrift folds a drift report's pairwise comparisons into the
// worst drift and the false-positive count.
func renderDrift(srep *SuiteReport) (*DriftReport, error) {
	report := &DriftReport{Runs: len(srep.Results), FinalCountsEqual: true}
	for _, cmp := range srep.Comparisons {
		rep := cmp.Report
		if rep.LargestSubstantial > report.MaxDriftPercent {
			report.MaxDriftPercent = rep.LargestSubstantial
		}
		if rep.LargestPercent > report.MaxDriftRaw {
			report.MaxDriftRaw = rep.LargestPercent
		}
		if len(rep.Final) > 0 {
			report.FinalCountsEqual = false
		}
		if rep.TrojanLikely {
			report.FalsePositives++
		}
	}
	return report, nil
}
