package fpga

import (
	"testing"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

func TestEdgeDetectorCounts(t *testing.T) {
	e := sim.NewEngine()
	line := signal.NewLine(e, "X_STEP")
	d := NewEdgeDetector(line)
	var fired []sim.Time
	d.OnRising(func(at sim.Time) { fired = append(fired, at) })
	for i := 0; i < 4; i++ {
		line.Set(signal.High)
		line.Set(signal.Low)
	}
	if d.Rising() != 4 || d.Falling() != 4 {
		t.Errorf("rising=%d falling=%d", d.Rising(), d.Falling())
	}
	if len(fired) != 4 {
		t.Errorf("handler fired %d times", len(fired))
	}
}

func TestPulseGeneratorBurst(t *testing.T) {
	e, _, ramps, b := testRig(t)
	g, err := NewPulseGenerator(b.Path(signal.PinZStep), 4000, 2*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tr := signal.NewTrace(ramps.Step(signal.AxisZ))
	doneCalled := false
	if err := g.Burst(10, func() { doneCalled = true }); err != nil {
		t.Fatal(err)
	}
	if !g.Running() {
		t.Error("generator not running during burst")
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if tr.RisingEdges() != 10 {
		t.Errorf("burst emitted %d pulses, want 10", tr.RisingEdges())
	}
	if !doneCalled {
		t.Error("done callback not invoked")
	}
	if g.Running() {
		t.Error("generator still running after burst")
	}
	// Pulse spacing = 250 µs at 4 kHz.
	s := tr.ComputeStats()
	if s.MinPeriod != 250*sim.Microsecond {
		t.Errorf("period = %v, want 250µs", s.MinPeriod)
	}
}

func TestPulseGeneratorBusy(t *testing.T) {
	_, _, _, b := testRig(t)
	g, err := NewPulseGenerator(b.Path(signal.PinZStep), 4000, 2*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Burst(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Burst(5, nil); err == nil {
		t.Error("overlapping burst accepted")
	}
	if err := g.Burst(0, nil); err == nil {
		t.Error("zero-count burst accepted")
	}
}

func TestPulseGeneratorValidation(t *testing.T) {
	_, _, _, b := testRig(t)
	path := b.Path(signal.PinZStep)
	if _, err := NewPulseGenerator(path, 0, sim.Microsecond); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewPulseGenerator(path, 1000, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewPulseGenerator(path, 1_000_000, 2*sim.Microsecond); err == nil {
		t.Error("width wider than period accepted")
	}
}

// pressSequence drives a double-tap homing pattern on an endstop line.
func pressSequence(e *sim.Engine, line *signal.Line, start sim.Time) sim.Time {
	at := start
	for i := 0; i < 2; i++ {
		func(at sim.Time) {
			e.Schedule(at, func() { line.Set(signal.High) })
			e.Schedule(at+10*sim.Millisecond, func() { line.Set(signal.Low) })
		}(at)
		at += 50 * sim.Millisecond
	}
	return at
}

func TestHomingDetectorFullCycle(t *testing.T) {
	e, _, ramps, b := testRig(t)
	var homedAt sim.Time
	b.OnHomed(func(at sim.Time) { homedAt = at })

	at := pressSequence(e, ramps.MinEndstop(signal.AxisX), 10*sim.Millisecond)
	at = pressSequence(e, ramps.MinEndstop(signal.AxisY), at)
	pressSequence(e, ramps.MinEndstop(signal.AxisZ), at)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !b.Homing().Homed() {
		t.Fatal("full double-tap sequence not recognized")
	}
	if homedAt == 0 || b.Homing().HomedAt() != homedAt {
		t.Errorf("homedAt = %v / %v", homedAt, b.Homing().HomedAt())
	}
	// Late registration still fires immediately.
	fired := false
	b.OnHomed(func(sim.Time) { fired = true })
	if !fired {
		t.Error("OnHomed after homing did not fire immediately")
	}
}

func TestHomingDetectorIgnoresOutOfOrder(t *testing.T) {
	e, _, ramps, b := testRig(t)
	// Z first — not part of an X→Y→Z cycle.
	at := pressSequence(e, ramps.MinEndstop(signal.AxisZ), 10*sim.Millisecond)
	pressSequence(e, ramps.MinEndstop(signal.AxisY), at)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if b.Homing().Homed() {
		t.Error("out-of-order presses recognized as homing")
	}
}

func TestHomingDetectorSingleTapInsufficient(t *testing.T) {
	e, _, ramps, b := testRig(t)
	// One press per axis only.
	for i, a := range []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ} {
		line := ramps.MinEndstop(a)
		at := sim.Time(i+1) * 20 * sim.Millisecond
		e.Schedule(at, func() { line.Set(signal.High) })
		e.Schedule(at+5*sim.Millisecond, func() { line.Set(signal.Low) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if b.Homing().Homed() {
		t.Error("single taps recognized as full homing")
	}
}

func TestAxisTrackerCountsWithDirection(t *testing.T) {
	e, arduino, _, b := testRig(t)
	step := arduino.Step(signal.AxisX)
	dir := arduino.Dir(signal.AxisX)

	pulse := func() {
		step.Set(signal.High)
		step.Set(signal.Low)
	}
	dir.Set(signal.Low) // positive
	pulse()
	pulse()
	pulse()
	dir.Set(signal.High) // negative
	pulse()
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := b.Tracker().Count(signal.AxisX); got != 2 {
		t.Errorf("Count(X) = %d, want 2", got)
	}
	tx := b.Tracker().Snapshot(7)
	if tx.Index != 7 || tx.X != 2 || tx.Y != 0 {
		t.Errorf("Snapshot = %+v", tx)
	}
}

// TestAxisTrackerCountOutOfRange pins Count for values that name no axis:
// 0, whether or not the real axes have counted anything.
func TestAxisTrackerCountOutOfRange(t *testing.T) {
	e, arduino, _, b := testRig(t)
	tr := b.Tracker()
	bad := []signal.Axis{signal.Axis(0), signal.Axis(5), signal.Axis(-1)}
	for _, a := range bad {
		if got := tr.Count(a); got != 0 {
			t.Errorf("fresh Count(%v) = %d, want 0", a, got)
		}
	}
	for _, a := range signal.Axes {
		step := arduino.Step(a)
		step.Set(signal.High)
		step.Set(signal.Low)
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	for _, a := range signal.Axes {
		if got := tr.Count(a); got != 1 {
			t.Errorf("Count(%v) = %d after one step, want 1", a, got)
		}
	}
	for _, a := range bad {
		if got := tr.Count(a); got != 0 {
			t.Errorf("Count(%v) = %d after stepping every axis, want 0", a, got)
		}
	}
}

func TestAxisTrackerResetAndFirstStep(t *testing.T) {
	e, arduino, _, b := testRig(t)
	step := arduino.Step(signal.AxisY)
	step.Set(signal.High)
	step.Set(signal.Low)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if b.Tracker().Count(signal.AxisY) != 1 {
		t.Fatal("pre-reset count wrong")
	}
	b.Tracker().Reset(e.Now())
	if b.Tracker().Count(signal.AxisY) != 0 {
		t.Error("Reset did not zero counters")
	}
	var firstAt sim.Time = -1
	b.Tracker().OnFirstStep(func(at sim.Time) { firstAt = at })
	e.Schedule(e.Now()+sim.Millisecond, func() {
		step.Set(signal.High)
		step.Set(signal.Low)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if firstAt < 0 {
		t.Error("OnFirstStep did not fire after reset")
	}
	// Immediate delivery when already stepped.
	fired := false
	b.Tracker().OnFirstStep(func(sim.Time) { fired = true })
	if !fired {
		t.Error("OnFirstStep after first step did not fire immediately")
	}
}

func TestExporterLifecycle(t *testing.T) {
	e, arduino, ramps, b := testRig(t)
	rec := recordSide(t, b, TapArduino)
	if b.Windows() != 0 {
		t.Fatal("windows exported at start")
	}

	// Complete a homing cycle.
	at := pressSequence(e, ramps.MinEndstop(signal.AxisX), 10*sim.Millisecond)
	at = pressSequence(e, ramps.MinEndstop(signal.AxisY), at)
	endOfHoming := pressSequence(e, ramps.MinEndstop(signal.AxisZ), at)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// No export before the first step.
	if err := e.Run(e.Now() + sim.Second); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 || b.Windows() != 0 {
		t.Error("exporter ran before the first STEP edge")
	}

	// First step starts the 0.1 s windows.
	step := arduino.Step(signal.AxisX)
	e.Schedule(endOfHoming+2*sim.Second, func() {
		step.Set(signal.High)
		step.Set(signal.Low)
	})
	if err := e.Run(endOfHoming + 2*sim.Second + 1050*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := rec.Len()
	if got != 10 || b.Windows() != got {
		t.Errorf("transactions after 1.05 s = %d, want 10", got)
	}
	if rec.Transactions[0].X != 1 {
		t.Errorf("first window X = %d, want 1", rec.Transactions[0].X)
	}

	b.StopCapture()
	if err := e.Run(e.Now() + sim.Second); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != got || b.Windows() != got {
		t.Error("exporter kept running after StopCapture")
	}
}
