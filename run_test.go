package offramps

import (
	"context"
	"errors"
	"strings"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/detect"
	"offramps/internal/flaw3d"
	"offramps/internal/fpga"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// boardTrojan builds a registered board trojan for run-layer tests.
func boardTrojan(t *testing.T, id string, seed uint64) fpga.Trojan {
	t.Helper()
	tr, err := trojan.Build(id, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunAbortsTrojanEarly(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A blatant relocation trojan: the live monitor must abort mid-print.
	tampered, err := flaw3d.Relocate(prog, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), tampered, WithDetector(monitor, AbortOnTrip))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || !res.TrojanLikely {
		t.Fatalf("trojan print not aborted: %+v", res)
	}
	if res.TripReason == "" {
		t.Fatal("no trip reason recorded")
	}
	if len(res.Detections) != 1 || res.Detections[0].Trip == nil {
		t.Fatalf("trip not in the finalized report: %+v", res.Detections)
	}
	if res.Completed {
		t.Error("aborted run reported as completed")
	}
	// The abort saved machine time: the job stopped well before the
	// golden print's full duration.
	goldenDuration := sim.Time(golden.Len()) * 100 * sim.Millisecond
	if res.AbortedAt >= goldenDuration {
		t.Errorf("aborted at %v, golden print runs %v — nothing saved", res.AbortedAt, goldenDuration)
	}
}

func TestRunCleanPrintCompletesUnderMonitor(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithSeed(3)) // different seed: real re-print
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), prog, WithDetector(monitor, AbortOnTrip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatalf("clean print aborted at %v: %s", res.AbortedAt, res.TripReason)
	}
	if res.TrojanLikely {
		t.Error("clean print flagged at finish")
	}
	if !res.Completed {
		t.Errorf("clean print incomplete: %v", res.HaltError)
	}
}

func TestRunStealthyFlaggedAtFinish(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2% reduction: survives the windowed margin, caught by the final
	// 0%-margin check in the detector's Finalize.
	tampered, err := flaw3d.Reduce(prog, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), tampered, WithDetector(monitor, AbortOnTrip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Errorf("stealthy reduction aborted mid-print: %s", res.TripReason)
	}
	if !res.TrojanLikely {
		t.Error("stealthy reduction not flagged")
	}
	if len(res.Detections) != 1 || len(res.Detections[0].Final) == 0 {
		t.Errorf("final-count mismatch missing from report: %+v", res.Detections)
	}
}

func TestRunDetectorsRequireMITM(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithoutMITM())
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = tb.Run(context.Background(), prog, WithLimit(sim.Second), WithDetector(monitor, AbortOnTrip))
	if err == nil {
		t.Error("detector run without MITM accepted")
	}
}

func TestRunEnsembleAndFlagOnly(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A blatant trojan under FlagOnly: the print must run to the end and
	// both ensemble members must still deliver their reports.
	tampered, err := flaw3d.Relocate(prog, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rules, err := detect.NewRuleEngine(detect.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	ensemble, err := detect.NewEnsemble(detect.VoteAny, monitor, rules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), tampered, WithDetector(ensemble, FlagOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("FlagOnly detector aborted the print")
	}
	if !res.TrojanLikely {
		t.Error("blatant trojan not flagged")
	}
	if len(res.Detections) != 1 || len(res.Detections[0].Sub) != 2 {
		t.Fatalf("ensemble report missing members: %+v", res.Detections)
	}
	if !strings.Contains(res.Detections[0].Format(), "golden-monitor") {
		t.Error("report does not name the tripping member")
	}
}

// TestRunSideBoundDetectors is the §V-D asymmetry live, in one print:
// the same board-run T2 masking trojan is invisible to a golden monitor
// fed from the Arduino-side tap and flagged by an identical monitor fed
// from the RAMPS side.
func TestRunSideBoundDetectors(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(WithSeed(2), WithTapSide(fpga.TapDual), WithTrojan(boardTrojan(t, "T2", 2)))
	if err != nil {
		t.Fatal(err)
	}
	upMonitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	downMonitor, err := detect.NewMonitor(golden, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), prog,
		WithDetectorAt(BindArduino, upMonitor, FlagOnly),
		WithDetectorAt(BindRAMPS, downMonitor, FlagOnly),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != 2 {
		t.Fatalf("got %d detections, want 2", len(res.Detections))
	}
	if up := res.Detections[0]; up.TrojanLikely {
		t.Errorf("arduino-bound monitor flagged the board's own trojan — §V-D says it cannot:\n%s", up.Format())
	}
	if down := res.Detections[1]; !down.TrojanLikely {
		t.Errorf("ramps-bound monitor missed the board-injected trojan:\n%s", down.Format())
	}
	if !res.TrojanLikely {
		t.Error("run verdict did not aggregate the ramps-side detection")
	}
}

// TestRunAttestationAbortsBoardTrojan is the tentpole claim end to end:
// a dual-tap rig running the attestation detector halts a board-resident
// trojan mid-print from a SINGLE simulation — no golden capture, no
// second run.
func TestRunAttestationAbortsBoardTrojan(t *testing.T) {
	prog := mustTestPart(t)
	tb, err := NewTestbed(WithSeed(3), WithTapSide(fpga.TapDual), WithTrojan(boardTrojan(t, "T2", 3)))
	if err != nil {
		t.Fatal(err)
	}
	att, err := detect.NewAttestation(detect.DefaultAttestationConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), prog, WithDetectorAt(BindDual, att, AbortOnTrip))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || !res.TrojanLikely {
		t.Fatalf("board trojan not aborted by self-attestation: %+v", res)
	}
	if res.TripReason == "" {
		t.Fatal("no trip reason recorded")
	}
	if len(res.Detections) != 1 || res.Detections[0].Detector != "attestation" {
		t.Fatalf("attestation report missing: %+v", res.Detections)
	}
}

func TestRunAttestationCleanDualPasses(t *testing.T) {
	prog := mustTestPart(t)
	tb, err := NewTestbed(WithSeed(4), WithTapSide(fpga.TapDual))
	if err != nil {
		t.Fatal(err)
	}
	att, err := detect.NewAttestation(detect.DefaultAttestationConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tb.Run(context.Background(), prog, WithDetectorAt(BindDual, att, AbortOnTrip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.TrojanLikely {
		t.Fatalf("clean dual-tap print failed attestation: %s", res.Detections[0].Format())
	}
	if res.Detections[0].NumCompared == 0 {
		t.Error("attestation compared no pairs")
	}
}

// TestRunTapBindingValidation: every invalid binding fails before the
// simulation starts, independent of the order options are applied in.
func TestRunTapBindingValidation(t *testing.T) {
	prog := mustTestPart(t)
	golden, err := captureRun(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	monitor := func() detect.Detector {
		m, err := detect.NewMonitor(golden, detect.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	attestation := func() detect.Detector {
		a, err := detect.NewAttestation(detect.DefaultAttestationConfig())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name string
		tap  fpga.TapSide
		opt  RunOption
	}{
		{"ramps binding on arduino-only board", fpga.TapArduino, WithDetectorAt(BindRAMPS, monitor(), FlagOnly)},
		{"arduino binding on ramps-only board", fpga.TapRAMPS, WithDetectorAt(BindArduino, monitor(), FlagOnly)},
		{"dual binding on single-tap board", fpga.TapArduino, WithDetectorAt(BindDual, attestation(), FlagOnly)},
		{"pair detector on primary binding", fpga.TapDual, WithDetector(attestation(), FlagOnly)},
		{"pair detector on single-side binding", fpga.TapDual, WithDetectorAt(BindRAMPS, attestation(), FlagOnly)},
		{"plain detector on dual binding", fpga.TapDual, WithDetectorAt(BindDual, monitor(), FlagOnly)},
	}
	for _, tc := range cases {
		// The option order must not matter: the same config error fires
		// with the detector first or last.
		orders := [][]RunOption{
			{tc.opt, WithLimit(sim.Second)},
			{WithLimit(sim.Second), tc.opt},
		}
		for i, opts := range orders {
			tb, err := NewTestbed(WithTapSide(tc.tap))
			if err != nil {
				t.Fatal(err)
			}
			_, err = tb.Run(context.Background(), prog, opts...)
			if err == nil || !strings.Contains(err.Error(), "config error") {
				t.Errorf("%s (order %d): err = %v, want config error", tc.name, i, err)
			}
		}
	}
}

// scriptedDetector fails or trips at fixed window numbers and logs the
// simulated instant it observed each window at.
type scriptedDetector struct {
	engine        *sim.Engine
	errAt, tripAt int // window numbers; -1 never
	seen          []sim.Time
	tripped       bool
}

func (d *scriptedDetector) Name() string { return "scripted" }

func (d *scriptedDetector) Observe(capture.Transaction) detect.Verdict {
	k := len(d.seen)
	d.seen = append(d.seen, d.engine.Now())
	if k == d.errAt {
		return detect.Verdict{Err: errScripted}
	}
	if k == d.tripAt {
		d.tripped = true
	}
	return detect.Verdict{Tripped: d.tripped}
}

func (d *scriptedDetector) Finalize() *detect.Report {
	return &detect.Report{Detector: d.Name(), Tripped: d.tripped, TrojanLikely: d.tripped}
}

var errScripted = errors.New("scripted stream error")

// TestRunLiveDetectorVerdicts pins what a live detector's verdicts do to
// the run: a stream error fails it, an AbortOnTrip trip stops it at the
// end of the export period holding the tripping window, and a trip that
// first happens while the finished print settles only flags.
func TestRunLiveDetectorVerdicts(t *testing.T) {
	prog := mustTestPart(t)
	run := func(errAt, tripAt int) (*scriptedDetector, *Testbed, *Result, error) {
		tb, err := NewTestbed(WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		d := &scriptedDetector{engine: tb.Engine, errAt: errAt, tripAt: tripAt}
		res, err := tb.Run(context.Background(), prog, WithDetector(d, AbortOnTrip))
		return d, tb, res, err
	}
	// The windows a whole run exports: a run that never trips, stepped
	// like every run with a detector attached.
	full, _, _, err := run(-1, -1)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.seen)

	cases := []struct {
		name          string
		errAt, tripAt int
		check         func(t *testing.T, d *scriptedDetector, tb *Testbed, res *Result, err error)
	}{
		{"stream error fails the run", 30, -1, func(t *testing.T, d *scriptedDetector, _ *Testbed, _ *Result, err error) {
			if err == nil || !errors.Is(err, errScripted) || !strings.Contains(err.Error(), d.Name()) {
				t.Fatalf("err = %v, want the stream error naming detector %q", err, d.Name())
			}
		}},
		{"trip aborts at the end of its export period", -1, 30, func(t *testing.T, d *scriptedDetector, tb *Testbed, res *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if !res.Aborted || res.Completed || res.TripReason == "" {
				t.Fatalf("aborted=%v completed=%v reason=%q, want an aborted print with a trip reason", res.Aborted, res.Completed, res.TripReason)
			}
			// The run started at instant 0 and steps one export period at a
			// time; the abort lands on the boundary closing the period the
			// tripping window was exported in.
			period := tb.Board.Config().ExportPeriod
			at := d.seen[30]
			if res.AbortedAt%period != 0 || at <= res.AbortedAt-period || at > res.AbortedAt {
				t.Errorf("aborted at %v, want the end of the %v period holding window 30 (observed at %v)", res.AbortedAt, period, at)
			}
			if len(d.seen) != 31 || res.Recording.Len() != 31 {
				t.Errorf("observed %d windows, board exported %d by the abort; want 31 each", len(d.seen), res.Recording.Len())
			}
		}},
		{"trip while settling only flags", -1, total - 1, func(t *testing.T, d *scriptedDetector, _ *Testbed, res *Result, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if res.Aborted || !res.Completed {
				t.Fatalf("aborted=%v completed=%v, want a completed print that was not aborted", res.Aborted, res.Completed)
			}
			if !res.TrojanLikely || len(d.seen) != total {
				t.Errorf("trojanLikely=%v after %d of %d windows, want flagged after the whole stream", res.TrojanLikely, len(d.seen), total)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, tb, res, err := run(tc.errAt, tc.tripAt)
			tc.check(t, d, tb, res, err)
		})
	}
}

func TestRunContextCancellation(t *testing.T) {
	prog := mustTestPart(t)
	tb, err := NewTestbed(WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tb.Run(ctx, prog); err == nil {
		t.Error("cancelled context accepted")
	}
}
