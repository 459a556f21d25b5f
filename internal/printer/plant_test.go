package printer

import (
	"math"
	"testing"

	"offramps/internal/fpga"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

func newTestPlant(t *testing.T) (*sim.Engine, *signal.Bus, *Plant) {
	t.Helper()
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	p, err := NewPlant(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, bus, p
}

// stepAxis pulses the STEP line n times with the given DIR level.
func stepAxis(t *testing.T, e *sim.Engine, bus *signal.Bus, a signal.Axis, n int, dir signal.Level) {
	t.Helper()
	bus.Enable(a).Set(signal.Low)
	bus.Dir(a).Set(dir)
	for i := 0; i < n; i++ {
		at := e.Now() + sim.Time(i+1)*50*sim.Microsecond
		step := bus.Step(a)
		e.Schedule(at, func() { step.Set(signal.High) })
		e.Schedule(at+2*sim.Microsecond, func() { step.Set(signal.Low) })
	}
	if err := e.Run(e.Now() + sim.Time(n+2)*50*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
}

func TestPlantAxisMotion(t *testing.T) {
	e, bus, p := newTestPlant(t)
	start := p.Position(signal.AxisX)
	stepAxis(t, e, bus, signal.AxisX, 160, signal.Low) // 160 steps = 2 mm at 80/mm
	if got := p.Position(signal.AxisX); math.Abs(got-(start+2)) > 1e-9 {
		t.Errorf("X = %v, want %v", got, start+2)
	}
	stepAxis(t, e, bus, signal.AxisX, 80, signal.High) // back 1 mm
	if got := p.Position(signal.AxisX); math.Abs(got-(start+1)) > 1e-9 {
		t.Errorf("X after reverse = %v, want %v", got, start+1)
	}
	if p.NetSteps(signal.AxisX) != 80 {
		t.Errorf("NetSteps = %d, want 80", p.NetSteps(signal.AxisX))
	}
}

// TestPlantDriverOutOfRange pins Driver for values that name no axis (nil)
// and checks each real axis gets its own driver.
func TestPlantDriverOutOfRange(t *testing.T) {
	_, _, p := newTestPlant(t)
	for _, a := range []signal.Axis{signal.Axis(0), signal.Axis(5), signal.Axis(-1)} {
		if d := p.Driver(a); d != nil {
			t.Errorf("Driver(%v) = %v, want nil", a, d)
		}
		if pos := p.Position(a); pos != 0 {
			t.Errorf("Position(%v) = %v, want 0", a, pos)
		}
		if n := p.NetSteps(a); n != 0 {
			t.Errorf("NetSteps(%v) = %v, want 0", a, n)
		}
		if lo, hi := p.LostSteps(a); lo != 0 || hi != 0 {
			t.Errorf("LostSteps(%v) = %v, %v, want 0, 0", a, lo, hi)
		}
	}
	for _, a := range signal.Axes {
		if d := p.Driver(a); d == nil || d.Axis() != a {
			t.Errorf("Driver(%v) = %v, want that axis's driver", a, d)
		}
	}
}

// TestAxisAccessorsAgreeAfterHomingAndMove homes X, Y and Z onto their
// endstops, zeroes an FPGA axis tracker on the same lines the way the
// board does on homing, then moves all four axes. Per axis, the
// tracker's Count, the plant's NetSteps since homing and its Position
// must tell the same story.
func TestAxisAccessorsAgreeAfterHomingAndMove(t *testing.T) {
	e, bus, p := newTestPlant(t)
	tr := fpga.NewAxisTracker(bus)
	cfg := DefaultConfig()
	for _, a := range []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ} {
		stepAxis(t, e, bus, a, int(math.Round(cfg.StartPos[a]*cfg.StepsPerMM[a])), signal.High)
		if bus.MinEndstop(a).Level() != signal.High || math.Abs(p.Position(a)) > 1e-9 {
			t.Fatalf("%v not homed: endstop %v, position %v", a, bus.MinEndstop(a).Level(), p.Position(a))
		}
	}
	var homed [signal.AxisE + 1]int64
	for _, a := range signal.Axes {
		homed[a] = p.NetSteps(a)
	}
	tr.Reset(e.Now())

	moves := map[signal.Axis]int{signal.AxisX: 800, signal.AxisY: 400, signal.AxisZ: 80, signal.AxisE: 96}
	for _, a := range signal.Axes {
		stepAxis(t, e, bus, a, moves[a], signal.Low)
	}
	stepAxis(t, e, bus, signal.AxisE, 48, signal.High) // retract half of it
	moves[signal.AxisE] -= 48

	for _, a := range signal.Axes {
		want := int64(moves[a])
		if got := tr.Count(a); got != want {
			t.Errorf("Count(%v) = %d, want %d", a, got, want)
		}
		if got := p.NetSteps(a) - homed[a]; got != want {
			t.Errorf("NetSteps(%v) since homing = %d, want %d", a, got, want)
		}
		if got, mm := p.Position(a), float64(want)/cfg.StepsPerMM[a]; math.Abs(got-mm) > 1e-9 {
			t.Errorf("Position(%v) = %v mm, want %v", a, got, mm)
		}
	}
}

func TestPlantEndstopTriggersAtZero(t *testing.T) {
	e, bus, p := newTestPlant(t)
	cfg := DefaultConfig()
	startSteps := int(cfg.StartPos[signal.AxisX] * cfg.StepsPerMM[signal.AxisX])
	if bus.MinEndstop(signal.AxisX).Level() != signal.Low {
		t.Fatal("endstop pressed at start position")
	}
	stepAxis(t, e, bus, signal.AxisX, startSteps, signal.High)
	if got := p.Position(signal.AxisX); math.Abs(got) > 1e-9 {
		t.Errorf("X = %v, want 0", got)
	}
	if bus.MinEndstop(signal.AxisX).Level() != signal.High {
		t.Error("endstop not pressed at 0")
	}
	// Back off: endstop releases.
	stepAxis(t, e, bus, signal.AxisX, 100, signal.Low)
	if bus.MinEndstop(signal.AxisX).Level() != signal.Low {
		t.Error("endstop not released after backing off")
	}
}

func TestPlantHardStopLosesSteps(t *testing.T) {
	e, bus, p := newTestPlant(t)
	cfg := DefaultConfig()
	startSteps := int(cfg.StartPos[signal.AxisX] * cfg.StepsPerMM[signal.AxisX])
	// Drive well past the hard stop.
	stepAxis(t, e, bus, signal.AxisX, startSteps+200, signal.High)
	if got := p.Position(signal.AxisX); got != -0.5 {
		t.Errorf("X = %v, want clamped at -0.5", got)
	}
	low, _ := p.LostSteps(signal.AxisX)
	if low == 0 {
		t.Error("no steps lost against the hard stop")
	}
	// Recovery: stepping positive still works.
	stepAxis(t, e, bus, signal.AxisX, 80, signal.Low)
	if got := p.Position(signal.AxisX); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("X after recovery = %v, want 0.5", got)
	}
}

func TestPlantDepositionDuringExtrusion(t *testing.T) {
	e, bus, p := newTestPlant(t)
	stepAxis(t, e, bus, signal.AxisE, 96, signal.Low) // 1 mm of filament
	got := p.Part().TotalFilament()
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("deposited %v mm, want 1", got)
	}
	d := p.Part().Deposits()[0]
	cfg := DefaultConfig()
	if d.X != cfg.StartPos[signal.AxisX] || d.Z != cfg.StartPos[signal.AxisZ] {
		t.Errorf("deposit at %+v, want start position", d)
	}
}

func TestPlantRetractionDebt(t *testing.T) {
	e, bus, p := newTestPlant(t)
	// Retract 0.5 mm: no deposition.
	stepAxis(t, e, bus, signal.AxisE, 48, signal.High)
	if p.Part().TotalFilament() != 0 {
		t.Fatal("retraction deposited material")
	}
	// Unretract 0.5 mm: pays the debt, still no deposition.
	stepAxis(t, e, bus, signal.AxisE, 48, signal.Low)
	if p.Part().TotalFilament() != 0 {
		t.Fatalf("unretract deposited %v mm", p.Part().TotalFilament())
	}
	// Further extrusion deposits.
	stepAxis(t, e, bus, signal.AxisE, 96, signal.Low)
	if got := p.Part().TotalFilament(); math.Abs(got-1) > 1e-9 {
		t.Errorf("post-debt deposit = %v, want 1", got)
	}
}

func TestPlantHeaterDynamics(t *testing.T) {
	e, bus, p := newTestPlant(t)
	if math.Abs(p.HotendTemp()-25) > 1e-9 {
		t.Fatalf("initial temp %v", p.HotendTemp())
	}
	bus.Line(signal.PinHotend).Set(signal.High)
	if err := e.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	after60 := p.HotendTemp()
	if after60 < 150 || after60 > 280 {
		t.Errorf("hotend after 60 s full power = %v°C, want mid-heatup", after60)
	}
	bus.Line(signal.PinHotend).Set(signal.Low)
	if err := e.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.HotendTemp() >= after60 {
		t.Error("hotend did not cool after power off")
	}
	if p.PeakHotendTemp() < after60 {
		t.Error("peak tracking broken")
	}
}

func TestPlantHeaterRunawayExceedsSafe(t *testing.T) {
	e, bus, p := newTestPlant(t)
	bus.Line(signal.PinHotend).Set(signal.High)
	if err := e.Run(200 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !p.HotendExceededSafe() {
		t.Errorf("hotend at %v°C never exceeded safe %v°C under forced duty",
			p.HotendTemp(), DefaultConfig().Hotend.MaxSafe)
	}
}

func TestPlantThermistorFeedback(t *testing.T) {
	e, bus, p := newTestPlant(t)
	v0 := bus.ThermHotend.Value()
	if v0 <= 0 || v0 >= 5 {
		t.Fatalf("initial thermistor voltage %v", v0)
	}
	back := p.Thermistor().Temperature(v0)
	if math.Abs(back-25) > 0.5 {
		t.Errorf("initial reading decodes to %v°C, want 25", back)
	}
	bus.Line(signal.PinHotend).Set(signal.High)
	if err := e.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	hot := p.Thermistor().Temperature(bus.ThermHotend.Value())
	if math.Abs(hot-p.HotendTemp()) > 1 {
		t.Errorf("thermistor decodes %v, plant at %v", hot, p.HotendTemp())
	}
}

func TestPlantFanCoolingEffect(t *testing.T) {
	// With the fan on, equilibrium temperature under constant power must
	// be lower.
	e1, bus1, p1 := newTestPlant(t)
	bus1.Line(signal.PinHotend).Set(signal.High)
	if err := e1.Run(300 * sim.Second); err != nil {
		t.Fatal(err)
	}

	e2, bus2, p2 := newTestPlant(t)
	bus2.Line(signal.PinHotend).Set(signal.High)
	bus2.Line(signal.PinFan).Set(signal.High)
	if err := e2.Run(300 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if p2.HotendTemp() >= p1.HotendTemp() {
		t.Errorf("fan-cooled %v >= uncooled %v", p2.HotendTemp(), p1.HotendTemp())
	}
	if p2.FanDuty() < 0.95 {
		t.Errorf("fan duty = %v, want ≈1", p2.FanDuty())
	}
}

func TestPlantBedHeating(t *testing.T) {
	e, bus, p := newTestPlant(t)
	bus.Line(signal.PinBed).Set(signal.High)
	if err := e.Run(90 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if p.BedTemp() < 55 {
		t.Errorf("bed after 90 s = %v°C, want ≥55", p.BedTemp())
	}
	if p.PeakBedTemp() < p.BedTemp()-1 {
		t.Error("bed peak tracking broken")
	}
	if len(p.BedHistory()) == 0 || len(p.HotendHistory()) == 0 {
		t.Error("temperature history not recorded")
	}
}

func TestPlantConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	bad := DefaultConfig()
	bad.StepsPerMM[signal.AxisX] = 0
	if _, err := NewPlant(e, bus, bad); err == nil {
		t.Error("zero steps/mm accepted")
	}
	bad = DefaultConfig()
	bad.StartPos[signal.AxisY] = 9999
	if _, err := NewPlant(e, bus, bad); err == nil {
		t.Error("start position beyond travel accepted")
	}
	bad = DefaultConfig()
	bad.Hotend.Capacity = 0
	if _, err := NewPlant(e, bus, bad); err == nil {
		t.Error("zero thermal capacity accepted")
	}
	bad = DefaultConfig()
	bad.ThermalTick = 0
	if _, err := NewPlant(e, bus, bad); err == nil {
		t.Error("zero thermal tick accepted")
	}
}

func TestThermalConfigValidate(t *testing.T) {
	good := HotendThermalDefaults()
	if err := good.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := good
	bad.Power = -1
	if bad.Validate() == nil {
		t.Error("negative power accepted")
	}
	bad = good
	bad.LossCoeff = 0
	if bad.Validate() == nil {
		t.Error("zero loss accepted")
	}
	bad = good
	bad.FanLoss = -1
	if bad.Validate() == nil {
		t.Error("negative fan loss accepted")
	}
}
