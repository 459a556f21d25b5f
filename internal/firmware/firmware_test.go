package firmware

import (
	"math"
	"strings"
	"testing"

	"offramps/internal/gcode"
	"offramps/internal/printer"
	"offramps/internal/ramps"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// rig is a firmware + plant sharing one bus: the paper's Figure 3a
// "unmodified signal chain" with the Arduino plugged straight into RAMPS.
type rig struct {
	engine *sim.Engine
	bus    *signal.Bus
	plant  *printer.Plant
	fw     *Firmware
}

func newRig(t *testing.T, mod func(*Config)) *rig {
	t.Helper()
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	plant, err := printer.NewPlant(e, bus, printer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	fw, err := New(e, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, bus: bus, plant: plant, fw: fw}
}

func (r *rig) run(t *testing.T, src string) {
	t.Helper()
	prog, err := gcode.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Start(); err != nil {
		t.Fatal(err)
	}
	r.runToCompletion(t)
}

func (r *rig) runToCompletion(t *testing.T) {
	t.Helper()
	for i := 0; !r.fw.Done(); i++ {
		if i > 5000 {
			t.Fatalf("firmware did not finish (pc=%d executed=%d)", r.fw.pc, r.fw.Executed())
		}
		if err := r.engine.Run(r.engine.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHomingZerosAllAxes(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, "G28\n")
	if r.fw.Err() != nil {
		t.Fatalf("homing failed: %v", r.fw.Err())
	}
	for _, a := range []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ} {
		if pos := r.plant.Position(a); math.Abs(pos) > 0.05 {
			t.Errorf("%v = %v mm after homing, want ≈0", a, pos)
		}
	}
}

func TestHomingSingleAxis(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, "G28 X\n")
	if math.Abs(r.plant.Position(signal.AxisX)) > 0.05 {
		t.Errorf("X = %v", r.plant.Position(signal.AxisX))
	}
	// Y untouched.
	want := printer.DefaultConfig().StartPos[signal.AxisY]
	if got := r.plant.Position(signal.AxisY); math.Abs(got-want) > 1e-9 {
		t.Errorf("Y = %v, want %v", got, want)
	}
}

func TestHomingFailsWithoutEndstop(t *testing.T) {
	// A plant whose X starts beyond the homing travel limit: firmware
	// must halt with a homing error instead of grinding forever.
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	pcfg := printer.DefaultConfig()
	pcfg.TravelMax[signal.AxisX] = 400
	pcfg.StartPos[signal.AxisX] = 390
	if _, err := printer.NewPlant(e, bus, pcfg); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HomingMaxTravel = 50
	fw, err := New(e, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := gcode.ParseString("G28 X\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; !fw.Done() && i < 2000; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() == nil || !strings.Contains(fw.Err().Error(), "homing") {
		t.Errorf("Err() = %v, want homing failure", fw.Err())
	}
}

func TestMoveTracksCommandedPosition(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `G28
G1 X30 Y20 F6000
G1 X50 Y20 Z1 F3000
`)
	if r.fw.Err() != nil {
		t.Fatal(r.fw.Err())
	}
	if got := r.plant.Position(signal.AxisX); math.Abs(got-50) > 0.05 {
		t.Errorf("X = %v, want 50", got)
	}
	if got := r.plant.Position(signal.AxisY); math.Abs(got-20) > 0.05 {
		t.Errorf("Y = %v, want 20", got)
	}
	if got := r.plant.Position(signal.AxisZ); math.Abs(got-1) > 0.05 {
		t.Errorf("Z = %v, want 1", got)
	}
}

func TestExtrusionDeposits(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `G28
G1 X20 Y20 F6000
G1 X40 E2.0 F1200
`)
	got := r.plant.Part().TotalFilament()
	if math.Abs(got-2.0) > 0.05 {
		t.Errorf("deposited %v mm, want 2.0", got)
	}
}

func TestG92ShiftsLogicalFrameOnly(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `G28
G1 X30 F6000
G92 X0
G1 X10 F6000
`)
	// Logical X10 after G92 X0 at machine 30 → machine 40.
	if got := r.plant.Position(signal.AxisX); math.Abs(got-40) > 0.05 {
		t.Errorf("X = %v, want 40", got)
	}
}

// TestG28ClearsG92Offset: homing an axis zeroes its machine position
// and its G92 offset, and only the homed axis's: X plans from the homed
// frame, Y keeps its shifted one.
func TestG28ClearsG92Offset(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `G28
G1 X30 Y20 F6000
G92 X0 Y0
G28 X
G1 X10 Y10 F6000
`)
	if got := r.plant.Position(signal.AxisX); math.Abs(got-10) > 0.05 {
		t.Errorf("X = %v, want 10", got)
	}
	// Logical Y10 after G92 Y0 at machine 20 → machine 30.
	if got := r.plant.Position(signal.AxisY); math.Abs(got-30) > 0.05 {
		t.Errorf("Y = %v, want 30", got)
	}
}

func TestRelativeMode(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `G28
G1 X10 F6000
G91
G1 X5
G1 X5
G90
`)
	if got := r.plant.Position(signal.AxisX); math.Abs(got-20) > 0.05 {
		t.Errorf("X = %v, want 20", got)
	}
}

func TestHeatAndWait(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `M140 S60
M104 S210
M190 S60
M109 S210
`)
	if r.fw.Err() != nil {
		t.Fatal(r.fw.Err())
	}
	if got := r.plant.HotendTemp(); math.Abs(got-210) > 5 {
		t.Errorf("hotend = %v, want ≈210", got)
	}
	if got := r.plant.BedTemp(); math.Abs(got-60) > 5 {
		t.Errorf("bed = %v, want ≈60", got)
	}
}

func TestHeaterHoldsTemperature(t *testing.T) {
	r := newRig(t, nil)
	prog, _ := gcode.ParseString("M109 S210\nG4 S120\n")
	if err := r.fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Start(); err != nil {
		t.Fatal(err)
	}
	r.runToCompletion(t)
	// After two minutes of regulation the PID must hold within a few
	// degrees.
	if got := r.plant.HotendTemp(); math.Abs(got-210) > 6 {
		t.Errorf("held temp = %v, want 210±6", got)
	}
	// And it must never have run away.
	if r.plant.PeakHotendTemp() > 240 {
		t.Errorf("overshoot to %v", r.plant.PeakHotendTemp())
	}
}

func TestThermalRunawayWatchTripsWhenHeaterDead(t *testing.T) {
	// No plant at all: the thermistor reads a constant 25 °C no matter
	// what the heater pin does — exactly what firmware sees under trojan
	// T6 (heater power cut).
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	ntc := ramps.StandardThermistor()
	bus.ThermHotend.Set(ntc.Voltage(25))
	bus.ThermBed.Set(ntc.Voltage(25))
	fw, err := New(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := gcode.ParseString("M109 S210\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; !fw.Done() && i < 200; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() == nil || !strings.Contains(fw.Err().Error(), "thermal") {
		t.Fatalf("Err() = %v, want thermal protection trip", fw.Err())
	}
	// Kill must drop the heater gate.
	if bus.Line(signal.PinHotend).Level() != signal.Low {
		t.Error("heater pin still high after kill")
	}
}

func TestMaxTempTrips(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	ntc := ramps.StandardThermistor()
	bus.ThermHotend.Set(ntc.Voltage(25))
	bus.ThermBed.Set(ntc.Voltage(25))
	fw, err := New(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := gcode.ParseString("G4 S10\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	// Mid-dwell, the hotend "reads" 300 °C.
	e.Schedule(2*sim.Second, func() { bus.ThermHotend.Set(ntc.Voltage(300)) })
	for i := 0; !fw.Done() && i < 100; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() == nil || !strings.Contains(fw.Err().Error(), "MAXTEMP") {
		t.Fatalf("Err() = %v, want MAXTEMP", fw.Err())
	}
}

func TestFanControl(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `M106 S128
G4 S5
`)
	if got := r.fw.FanDuty(); math.Abs(got-128.0/255) > 0.01 {
		t.Errorf("FanDuty = %v", got)
	}
	if got := r.plant.FanDuty(); math.Abs(got-0.5) > 0.1 {
		t.Errorf("plant fan duty = %v, want ≈0.5", got)
	}
	r2 := newRig(t, nil)
	r2.run(t, "M106 S255\nG4 S3\nM107\nG4 S3\n")
	if got := r2.plant.FanDuty(); got > 0.1 {
		t.Errorf("fan duty after M107 = %v, want ≈0", got)
	}
}

func TestMotorEnableLifecycle(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, "G28\nG1 X10 F6000\nM84\n")
	if r.fw.MotorsEnabled() {
		t.Error("motors enabled after M84")
	}
	if r.bus.Enable(signal.AxisX).Level() != signal.High {
		t.Error("X EN not released after M84")
	}
}

func TestDwellTiming(t *testing.T) {
	r := newRig(t, nil)
	prog, _ := gcode.ParseString("G4 P2500\n")
	if err := r.fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Start(); err != nil {
		t.Fatal(err)
	}
	r.runToCompletion(t)
	if r.engine.Now() < 2500*sim.Millisecond {
		t.Errorf("finished at %v, dwell was 2.5 s", r.engine.Now())
	}
}

func TestStatusAndUnknownCommands(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, `M115
M105
M117 ;hello display
M73 P10
`)
	if r.fw.UnknownCommands() != 2 {
		t.Errorf("UnknownCommands = %d, want 2 (M115, M73)", r.fw.UnknownCommands())
	}
	joined := strings.Join(r.fw.StatusLog(), "|")
	if !strings.Contains(joined, "ok T:") {
		t.Errorf("status log missing M105 report: %q", joined)
	}
}

func TestStepRateStaysUnderCap(t *testing.T) {
	r := newRig(t, nil)
	tr := signal.NewTrace(r.bus.Step(signal.AxisX))
	r.run(t, `G28
G1 X200 F20000
`)
	stats := tr.ComputeStats()
	if stats.MaxFrequency > DefaultConfig().MaxStepRate*1.01 {
		t.Errorf("X step freq %v Hz exceeds cap %v", stats.MaxFrequency, DefaultConfig().MaxStepRate)
	}
	if stats.MinPulseWidth < sim.Microsecond {
		t.Errorf("pulse width %v below 1 µs", stats.MinPulseWidth)
	}
}

func TestFeedrateAxisClamp(t *testing.T) {
	// Z max feedrate is 12 mm/s; command 100 mm/s and verify duration.
	r := newRig(t, nil)
	prog, _ := gcode.ParseString("G28\nG1 Z50 F6000\n")
	if err := r.fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Start(); err != nil {
		t.Fatal(err)
	}
	r.runToCompletion(t)
	if got := r.plant.Position(signal.AxisZ); math.Abs(got-50) > 0.05 {
		t.Fatalf("Z = %v, want 50", got)
	}
	// 50 mm at 12 mm/s is ≥ 4.1 s; homing adds a little. If the clamp
	// failed, the move would finish in 0.5 s.
	if r.engine.Now() < sim.FromSeconds(4) {
		t.Errorf("Z move too fast: total time %v", r.engine.Now())
	}
}

func TestTimeNoiseDeterministicPerSeed(t *testing.T) {
	end := func(seed uint64) sim.Time {
		r := newRig(t, func(c *Config) { c.Seed = seed })
		r.run(t, "G28\nG1 X50 F6000\nG1 X10 F6000\n")
		return r.fw.FinishedAt()
	}
	a1 := end(7)
	a2 := end(7)
	b := end(8)
	if a1 != a2 {
		t.Errorf("same seed, different end times: %v vs %v", a1, a2)
	}
	if a1 == b {
		t.Error("different seeds produced identical timelines")
	}
}

func TestStartErrors(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	fw, err := New(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err == nil {
		t.Error("Start without program accepted")
	}
	prog, _ := gcode.ParseString("G4 P1\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err == nil {
		t.Error("double Start accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.StepsPerMM[signal.AxisE] = 0 },
		func(c *Config) { c.MaxFeedrate[signal.AxisX] = 0 },
		func(c *Config) { c.Acceleration = 0 },
		func(c *Config) { c.MaxStepRate = 0 },
		func(c *Config) { c.StepPulseWidth = 0 },
		func(c *Config) { c.DefaultFeedrate = 0 },
		func(c *Config) { c.HomingOrder = nil },
		func(c *Config) { c.HomingBumpDist = 0 },
		func(c *Config) { c.PWMPeriod = 0 },
		func(c *Config) { c.HotendMaxTemp = 0 },
		func(c *Config) { c.WatchPeriod = 0 },
		func(c *Config) { c.TimeNoise = -1 },
		func(c *Config) { c.UARTBaud = 0 },
		func(c *Config) { c.HomingFeedrate[signal.AxisZ] = 0 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		// Deep-copy the maps the mods touch.
		cfg.StepsPerMM = copyAxisMap(cfg.StepsPerMM)
		cfg.MaxFeedrate = copyAxisMap(cfg.MaxFeedrate)
		cfg.HomingFeedrate = copyAxisMap(cfg.HomingFeedrate)
		mod(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mod %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func copyAxisMap(m map[signal.Axis]float64) map[signal.Axis]float64 {
	out := make(map[signal.Axis]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
