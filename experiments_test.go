package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"offramps/internal/capture"
)

// These tests are the repository's headline assertions: every table and
// figure of the paper's evaluation must reproduce. They are slower than
// unit tests (each runs multiple full simulated prints) but still finish
// in seconds apiece.

// experimentCampaign is shared by the experiment tests, so the goldens
// the experiments have in common simulate once, as in `experiments -all`.
var experimentCampaign = Campaign{Cache: NewGoldenCache()}

func TestTableIReproduces(t *testing.T) {
	rep, err := TableI(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 9 {
		t.Fatalf("Table I has %d rows, want 9", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if !row.Observed {
			t.Errorf("%s (%s) effect not observed: %s", row.ID, row.Scenario, row.Measured)
		}
	}

	// Spot-check the paper's specific claims.
	byID := make(map[string]TableIRow, len(rep.Rows))
	for _, row := range rep.Rows {
		byID[row.ID] = row
	}
	// T2: "reducing the flow and amount of material extruded by 50%".
	if r := byID["T2"]; r.Diff.FilamentRatio < 0.45 || r.Diff.FilamentRatio > 0.55 {
		t.Errorf("T2 filament ratio = %v, want ≈0.5", r.Diff.FilamentRatio)
	}
	// T6: DoS — the print must NOT complete.
	if r := byID["T6"]; r.Result.Completed {
		t.Error("T6 print completed despite heater DoS")
	}
	// T7: destructive — past working spec while the golden never was.
	if r := byID["T7"]; !r.Result.HotendExceededSafe {
		t.Error("T7 did not exceed thermal spec")
	}
	if rep.Golden.HotendExceededSafe {
		t.Error("golden print exceeded thermal spec")
	}
	// T7: "the temperature of the hot-end was observed to rise extremely
	// fast, passing the intended temperature within a few seconds" —
	// the peak must be far above the 210 °C setpoint.
	if r := byID["T7"]; r.Result.PeakHotendTemp < 280 {
		t.Errorf("T7 peak = %v °C, want well past 260", r.Result.PeakHotendTemp)
	}
	// Kinds match Table I.
	wantKinds := map[string]string{
		"T1": "PM", "T2": "PM", "T3": "PM", "T4": "PM", "T5": "PM",
		"T6": "DoS", "T7": "D", "T8": "DoS", "T9": "PM",
	}
	for id, kind := range wantKinds {
		if byID[id].Kind != kind {
			t.Errorf("%s kind = %s, want %s", id, byID[id].Kind, kind)
		}
	}
	if !strings.Contains(rep.Format(), "T7") {
		t.Error("Format() missing rows")
	}
}

func TestTableIIReproduces(t *testing.T) {
	rep, err := TableII(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("Table II has %d rows, want 8", len(rep.Rows))
	}
	// The paper's result: every test case detected.
	for _, row := range rep.Rows {
		if !row.Detected {
			t.Errorf("case %d (%s %v) not detected", row.Case.Num, row.Case.Type, row.Case.Value)
		}
	}
	// And the margin must not flag a clean print.
	if rep.CleanFalsePositive {
		t.Errorf("clean control flagged: %s", rep.CleanControl.Format())
	}
	// The stealthiest reduction (0.98) must be caught by the final
	// 0%-margin check, not the windowed margin — the paper's exact
	// narrative for why the final check exists.
	stealthy := rep.Rows[3]
	if stealthy.Case.Value != 0.98 {
		t.Fatalf("row 4 is %v", stealthy.Case)
	}
	if stealthy.Report.NumMismatches != 0 {
		t.Logf("note: 0.98 reduction produced %d window mismatches (still valid)", stealthy.Report.NumMismatches)
	}
	if len(stealthy.Report.Final) == 0 {
		t.Error("0.98 reduction not caught by the final count check")
	}
	if !strings.Contains(rep.Format(), "clean control") {
		t.Error("Format() missing control row")
	}
}

func TestFigure4Reproduces(t *testing.T) {
	rep, err := Figure4(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Report.TrojanLikely {
		t.Fatal("Figure 4 trojan not detected")
	}
	if len(rep.GoldenExcerpt) == 0 || len(rep.GoldenExcerpt) != len(rep.TrojanExcerpt) {
		t.Fatalf("excerpt sizes: %d vs %d", len(rep.GoldenExcerpt), len(rep.TrojanExcerpt))
	}
	// The excerpts must actually diverge.
	diverges := false
	for i := range rep.GoldenExcerpt {
		if rep.GoldenExcerpt[i] != rep.TrojanExcerpt[i] {
			diverges = true
			break
		}
	}
	if !diverges {
		t.Error("excerpts identical")
	}
	out := rep.Format()
	for _, want := range []string{
		"golden reference",
		"Flaw3D Trojan print",
		"Index, X, Y, Z, E",
		"Largest percent difference found:",
		"Trojan likely!",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q", want)
		}
	}
}

func TestOverheadReproduces(t *testing.T) {
	rep, err := Overhead(1)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: max propagation 12.923 ns; our model rounds to 13 ns. Any
	// value in the same order validates the claim that the delay is
	// negligible next to 1 µs pulses.
	if rep.MaxPropagation <= 0 || rep.MaxPropagation > 100 {
		t.Errorf("MaxPropagation = %v", rep.MaxPropagation)
	}
	// Paper envelope: < 20 kHz, ≥ 1 µs.
	if rep.MaxStepFrequency >= 20_000 {
		t.Errorf("MaxStepFrequency = %v, want < 20 kHz", rep.MaxStepFrequency)
	}
	if rep.MinPulseWidth < 1000 {
		t.Errorf("MinPulseWidth = %v, want ≥ 1 µs", rep.MinPulseWidth)
	}
	// "We found no effect on print quality while running our detection
	// hardware."
	if rep.FilamentRatio < 0.999 || rep.FilamentRatio > 1.001 {
		t.Errorf("FilamentRatio = %v, want 1.0", rep.FilamentRatio)
	}
	if len(rep.LineStats) != 4 {
		t.Errorf("LineStats = %d entries, want 4 step lines", len(rep.LineStats))
	}
	if !strings.Contains(rep.Format(), "propagation") {
		t.Error("Format() incomplete")
	}
}

func TestDriftReproduces(t *testing.T) {
	rep, err := Drift(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's bound: "always less than a 5% difference" — asserted on
	// substantial windows, the paper's count regime.
	if rep.MaxDriftPercent >= 5 {
		t.Fatalf("substantial drift = %v%%, exceeds the paper's 5%% bound", rep.MaxDriftPercent)
	}
	if rep.MaxDriftRaw >= 100 {
		t.Fatalf("raw drift = %v%% — captures misaligned", rep.MaxDriftRaw)
	}
	if rep.FalsePositives != 0 {
		t.Errorf("%d false positives across %d known-good prints", rep.FalsePositives, rep.Runs)
	}
	if !rep.FinalCountsEqual {
		t.Error("final counts differ between known-good prints")
	}
	if !strings.Contains(rep.Format(), "5%") {
		t.Error("Format() incomplete")
	}
}

// TestRenderersIgnoreSpecOrder runs each paper experiment's spec file
// with its scenarios and comparisons in reverse order: the renderers
// look rows up by name, so the report must come out identical.
func TestRenderersIgnoreSpecOrder(t *testing.T) {
	t.Run("table1.json", func(t *testing.T) { sameReversed(t, "table1.json", TableI, renderTableI) })
	t.Run("grid_tableii.json", func(t *testing.T) { sameReversed(t, "grid_tableii.json", TableII, renderTableII) })
	t.Run("figure4.json", func(t *testing.T) { sameReversed(t, "figure4.json", Figure4, renderFigure4) })
	t.Run("tapside.json", func(t *testing.T) { sameReversed(t, "tapside.json", TapSides, renderTapSides) })
	t.Run("attestation.json", func(t *testing.T) { sameReversed(t, "attestation.json", SelfAttest, renderSelfAttest) })
}

// sameReversed runs experiment at seed 1, then file reversed through
// render, and requires the two reports to marshal to the same bytes.
func sameReversed[R any](t *testing.T, file string, experiment func(Campaign, uint64) (R, error), render func(*SuiteReport) (R, error)) {
	t.Helper()
	suite, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", file), false)
	if err != nil {
		t.Fatal(err)
	}
	suite.BaseSeed = 1
	slices.Reverse(suite.Scenarios)
	slices.Reverse(suite.Compare)
	forward, err := experiment(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	backward, err := runSuite(experimentCampaign, suite, render)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(forward)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(backward)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s with its scenarios reversed renders a different report", file)
	}
}

// TestRenderersRejectMissingRows: a report that lacks a row the
// renderer needs is an error naming it, never a mislabelled table.
func TestRenderersRejectMissingRows(t *testing.T) {
	rep := &SuiteReport{Suite: "figure4", Results: []ScenarioResult{{Name: "golden", Result: &Result{}}}}
	if _, err := renderFigure4(rep); err == nil || !strings.Contains(err.Error(), `"relocation"`) {
		t.Errorf("renderFigure4 without the relocation row: err = %v", err)
	}
	if _, err := renderTableII(rep); err == nil || !strings.Contains(err.Error(), "flaw3d-1") {
		t.Errorf("renderTableII without comparisons: err = %v", err)
	}
	if _, err := renderTableI(rep); err == nil || !strings.Contains(err.Error(), `"T0"`) {
		t.Errorf("renderTableI without T0: err = %v", err)
	}
}

// TestTapSidesReproduces is the §V-D co-location claim, both directions:
// the paper's Arduino-side tap is provably blind to a trojan its own
// board runs, and moving the tap to the RAMPS side catches the very same
// print — so the limitation is topology, not detection. Two seeds guard
// against the result holding by coincidence (the extruder has no endstop,
// so no seed can couple the tampered physics back into the Arduino
// capture; see TapSideReport).
func TestTapSidesReproduces(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		rep, err := TapSides(experimentCampaign, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ArduinoDetected {
			t.Errorf("seed %d: arduino-side tap detected the board's own trojan — §V-D says it cannot", seed)
		}
		if rep.ArduinoReport.NumMismatches != 0 || len(rep.ArduinoReport.Final) != 0 {
			t.Errorf("seed %d: arduino-side capture diverged from golden: %d mismatches, %d final",
				seed, rep.ArduinoReport.NumMismatches, len(rep.ArduinoReport.Final))
		}
		if !rep.RAMPSDetected {
			t.Errorf("seed %d: ramps-side tap missed the board-injected trojan", seed)
		}
		// The undetected (arduino-side) print still carries real physical
		// damage — that is what makes the blind spot matter. T2's
		// signature is the halved flow.
		if rep.Diff.FilamentRatio < 0.40 || rep.Diff.FilamentRatio > 0.60 {
			t.Errorf("seed %d: trojaned filament ratio = %v, want ≈0.5", seed, rep.Diff.FilamentRatio)
		}
		out := rep.Format()
		for _, want := range []string{"arduino-side tap", "ramps-side tap", "TROJAN LIKELY"} {
			if !strings.Contains(out, want) {
				t.Errorf("Format() missing %q", want)
			}
		}
	}
}

// TestSelfAttestReproduces checks the tentpole claim on the default
// seed: a dual-tap print detects a board-run T2 through self-attestation
// alone — no golden print, one simulation — while the very same run's
// Arduino-side capture passes the paper's golden workflow, and a clean
// dual-tap print is not false-positived.
func TestSelfAttestReproduces(t *testing.T) {
	rep, err := SelfAttest(experimentCampaign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Error("dual-tap attestation missed the board-run trojan")
	}
	if rep.Attestation.NumCompared == 0 {
		t.Error("attestation compared no pairs")
	}
	if rep.CleanFalsePositive {
		t.Errorf("clean dual-tap print failed attestation:\n%s", rep.CleanControl.Format())
	}
	if rep.ArduinoDetected {
		t.Error("the trojaned run's arduino-side capture was flagged — §V-D says the paper's rig cannot see it")
	}
	out := rep.Format()
	for _, want := range []string{"no golden", "TROJAN LIKELY", "blind to its own board"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestSelfAttestSeedSweep is the seed-robustness regression: the
// attestation verdict and the §V-D asymmetry must hold for seeds 1–10,
// not just the seeds spot-checked when the experiments were built. The
// extruder has no endstop, so no feedback path exists for any seed to
// couple the board's tampering back into the Arduino-side capture; this
// sweep guards that argument against future physics changes.
func TestSelfAttestSeedSweep(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		rep, err := SelfAttest(experimentCampaign, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Detected {
			t.Errorf("seed %d: attestation missed the board-run trojan", seed)
		}
		if rep.CleanFalsePositive {
			t.Errorf("seed %d: clean dual-tap print failed attestation (%d mismatches, largest %.2f%%)",
				seed, rep.CleanControl.NumMismatches, rep.CleanControl.LargestPercent)
		}
		if rep.ArduinoDetected {
			t.Errorf("seed %d: arduino-side capture flagged — the §V-D asymmetry broke", seed)
		}
		if rep.Diff.FilamentRatio < 0.40 || rep.Diff.FilamentRatio > 0.60 {
			t.Errorf("seed %d: trojaned filament ratio = %v, want ≈0.5", seed, rep.Diff.FilamentRatio)
		}
	}
}

func TestCaptureCSVRoundTripThroughRun(t *testing.T) {
	tb, err := NewTestbed(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := TestPart()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.Recording.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := capture.ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Recording.Len() {
		t.Errorf("CSV round trip: %d vs %d transactions", back.Len(), res.Recording.Len())
	}
}
