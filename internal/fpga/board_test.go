package fpga

import (
	"strings"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// testRig builds an engine with two buses joined by a Board.
func testRig(t *testing.T) (*sim.Engine, *signal.Bus, *signal.Bus, *Board) {
	t.Helper()
	e := sim.NewEngine()
	arduino := signal.NewBus(e)
	ramps := signal.NewBus(e)
	b, err := NewBoard(e, arduino, ramps, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, arduino, ramps, b
}

// recordSide subscribes a recording to one side's export stream, as the
// host does; the board itself keeps no trace.
func recordSide(t *testing.T, b *Board, side TapSide) *capture.Recording {
	t.Helper()
	rec := &capture.Recording{Period: b.Config().ExportPeriod}
	if err := b.OnExport(side, func(tx capture.Transaction) {
		if err := rec.Append(tx); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestBoardForwardsControlWithDelay(t *testing.T) {
	e, arduino, ramps, _ := testRig(t)
	arduino.Step(signal.AxisX).Set(signal.High)
	if ramps.Step(signal.AxisX).Level() != signal.Low {
		t.Fatal("edge crossed MITM instantaneously")
	}
	if err := e.Run(13 * sim.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if ramps.Step(signal.AxisX).Level() != signal.High {
		t.Fatal("edge did not cross MITM after propagation delay")
	}
}

func TestBoardForwardsFeedback(t *testing.T) {
	e, arduino, ramps, _ := testRig(t)
	ramps.MinEndstop(signal.AxisY).Set(signal.High)
	if err := e.Run(sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if arduino.MinEndstop(signal.AxisY).Level() != signal.High {
		t.Error("endstop did not propagate back to Arduino side")
	}
	ramps.ThermHotend.Set(2.5)
	if arduino.ThermHotend.Value() != 2.5 {
		t.Error("thermistor analog did not propagate")
	}
}

func TestPinPathFilterMasks(t *testing.T) {
	e, arduino, ramps, b := testRig(t)
	// Drop every second rising edge on E_STEP.
	n := 0
	b.Path(signal.PinEStep).AddFilter(func(_ sim.Time, level signal.Level) bool {
		if level != signal.High {
			return true
		}
		n++
		return n%2 == 1
	})
	tr := signal.NewTrace(ramps.Step(signal.AxisE))
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * 100 * sim.Microsecond
		line := arduino.Step(signal.AxisE)
		e.Schedule(at, func() { line.Set(signal.High) })
		e.Schedule(at+2*sim.Microsecond, func() { line.Set(signal.Low) })
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := tr.RisingEdges(); got != 5 {
		t.Errorf("output pulses = %d, want 5 (half masked)", got)
	}
}

func TestPinPathForceAndRelease(t *testing.T) {
	e, arduino, ramps, b := testRig(t)
	path := b.Path(signal.PinHotend)
	arduino.Line(signal.PinHotend).Set(signal.High)
	if err := e.Run(sim.Microsecond); err != nil {
		t.Fatal(err)
	}

	path.Force(signal.Low) // T6 behaviour
	if err := e.Run(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ramps.Line(signal.PinHotend).Level() != signal.Low {
		t.Fatal("Force(Low) not applied")
	}
	// Source edges are swallowed while forced.
	arduino.Line(signal.PinHotend).Set(signal.Low)
	arduino.Line(signal.PinHotend).Set(signal.High)
	if err := e.Run(3 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ramps.Line(signal.PinHotend).Level() != signal.Low {
		t.Fatal("forced path leaked a source edge")
	}
	if !path.Forced() {
		t.Error("Forced() = false")
	}

	path.Release()
	if err := e.Run(4 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if ramps.Line(signal.PinHotend).Level() != signal.High {
		t.Error("Release did not resync to source level")
	}
	path.Release() // idempotent
}

func TestPinPathInjectPulse(t *testing.T) {
	e, _, ramps, b := testRig(t)
	tr := signal.NewTrace(ramps.Step(signal.AxisX))
	b.Path(signal.PinXStep).InjectPulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if tr.RisingEdges() != 1 {
		t.Errorf("injected pulses = %d, want 1", tr.RisingEdges())
	}
	s := tr.ComputeStats()
	if s.MinPulseWidth != 2*sim.Microsecond {
		t.Errorf("injected width = %v", s.MinPulseWidth)
	}
}

func TestPinPathInjectSuppressedWhileForced(t *testing.T) {
	e, _, ramps, b := testRig(t)
	path := b.Path(signal.PinXStep)
	path.Force(signal.Low)
	tr := signal.NewTrace(ramps.Step(signal.AxisX))
	path.InjectPulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if tr.RisingEdges() != 0 {
		t.Error("injection bypassed a Force clamp")
	}
}

func TestBoardUnknownPathPanics(t *testing.T) {
	_, _, _, b := testRig(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown pin did not panic")
		}
	}()
	b.Path("NOPE")
}

// fakeTrojan is a minimal Trojan for install tests.
type fakeTrojan struct {
	id     string
	armErr error
	armed  bool
}

func (f *fakeTrojan) ID() string          { return f.id }
func (f *fakeTrojan) Description() string { return "fake" }
func (f *fakeTrojan) Arm(*Board) error    { f.armed = true; return f.armErr }

func TestInstallTrojan(t *testing.T) {
	_, _, _, b := testRig(t)
	tr := &fakeTrojan{id: "TX"}
	if err := b.InstallTrojan(tr); err != nil {
		t.Fatal(err)
	}
	if !tr.armed {
		t.Error("trojan not armed")
	}
	if err := b.InstallTrojan(&fakeTrojan{id: "TX"}); err == nil {
		t.Error("duplicate trojan ID accepted")
	}
	if err := b.InstallTrojan(nil); err == nil {
		t.Error("nil trojan accepted")
	}
	if got := len(b.Trojans()); got != 1 {
		t.Errorf("Trojans() = %d entries", got)
	}
}

func TestBoardConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	a, r := signal.NewBus(e), signal.NewBus(e)
	bad := DefaultConfig()
	bad.PropagationDelay = -1
	if _, err := NewBoard(e, a, r, bad); err == nil {
		t.Error("negative delay accepted")
	}
	bad = DefaultConfig()
	bad.ExportPeriod = 0
	if _, err := NewBoard(e, a, r, bad); err == nil {
		t.Error("zero export period accepted")
	}
	if !strings.Contains(DefaultConfig().PropagationDelay.String(), "13ns") {
		t.Errorf("default delay = %v", DefaultConfig().PropagationDelay)
	}
}
