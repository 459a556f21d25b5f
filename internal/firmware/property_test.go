package firmware

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"offramps/internal/gcode"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Property: after homing, for any sequence of in-bounds absolute moves,
// the plant's physical position agrees with the last commanded coordinate
// to within one microstep on every axis. This is the foundational
// invariant the whole detection methodology rests on: commanded steps ==
// physical steps when nothing malicious is in the path.
func TestCommandedPositionProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-print property test")
	}
	f := func(raw []uint16) bool {
		var sb strings.Builder
		sb.WriteString("G28\n")
		var lastX, lastY, lastZ float64
		n := len(raw)
		if n > 8 {
			n = 8 // bound simulated time
		}
		for i := 0; i < n; i++ {
			lastX = float64(raw[i]%180) + 1
			lastY = float64((raw[i]/180)%150) + 1
			lastZ = float64(raw[i]%50)/10 + 0.2
			fmt.Fprintf(&sb, "G1 X%.1f Y%.1f Z%.1f F9000\n", lastX, lastY, lastZ)
		}
		e := sim.NewEngine()
		bus := signal.NewBus(e)
		plant, err := printer.NewPlant(e, bus, printer.DefaultConfig())
		if err != nil {
			return false
		}
		fw, err := New(e, bus, DefaultConfig())
		if err != nil {
			return false
		}
		prog, err := gcode.ParseString(sb.String())
		if err != nil {
			return false
		}
		if err := fw.Load(prog, nil); err != nil {
			return false
		}
		if err := fw.Start(); err != nil {
			return false
		}
		for i := 0; !fw.Done() && i < 2000; i++ {
			if err := e.Run(e.Now() + sim.Second); err != nil {
				return false
			}
		}
		if !fw.Done() || fw.Err() != nil {
			return false
		}
		if n == 0 {
			return true
		}
		tol := map[signal.Axis]float64{
			signal.AxisX: 1.0 / 80, signal.AxisY: 1.0 / 80, signal.AxisZ: 1.0 / 400,
		}
		return math.Abs(plant.Position(signal.AxisX)-lastX) <= tol[signal.AxisX]+1e-9 &&
			math.Abs(plant.Position(signal.AxisY)-lastY) <= tol[signal.AxisY]+1e-9 &&
			math.Abs(plant.Position(signal.AxisZ)-lastZ) <= tol[signal.AxisZ]+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Fault injection: an endstop stuck closed makes homing complete
// instantly at the current (wrong) position — the real failure mode of a
// shorted switch. The firmware believes it is at zero; the plant is not.
func TestFaultStuckEndstop(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	plant, err := printer.NewPlant(e, bus, printer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Short the X endstop by holding its line high at the plant side.
	bus.MinEndstop(signal.AxisX).Set(signal.High)

	fw, err := New(e, bus, DefaultConfig())
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
	for i := 0; !fw.Done() && i < 100; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() != nil {
		t.Fatalf("stuck endstop killed the machine: %v", fw.Err())
	}
	// Homing "completed" at once: the plant has barely moved from its
	// start.
	start := printer.DefaultConfig().StartPos[signal.AxisX]
	if got := plant.Position(signal.AxisX); math.Abs(got-start) > 3 {
		t.Errorf("plant X = %v, want near start %v (stuck switch → no real homing)", got, start)
	}
}

// Fault injection: a disconnected (never-closing) Y endstop must produce
// a homing failure rather than an infinite grind.
func TestFaultOpenEndstop(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	// No plant at all: the endstop line never rises. Provide sane
	// thermistor readings so the control loop stays quiet.
	bus.ThermHotend.Set(4.77)
	bus.ThermBed.Set(4.77)
	fw, err := New(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := gcode.ParseString("G28 Y\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; !fw.Done() && i < 500; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() == nil || !strings.Contains(fw.Err().Error(), "homing Y failed") {
		t.Fatalf("Err() = %v, want homing failure", fw.Err())
	}
}

// Fault injection: thermistor wire breaks mid-print (reads open = very
// cold). The firmware must trip thermal protection, not heat forever.
func TestFaultThermistorOpenCircuit(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	plant, err := printer.NewPlant(e, bus, printer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(e, bus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := gcode.ParseString("M109 S210\nG4 S300\n")
	if err := fw.Load(prog, nil); err != nil {
		t.Fatal(err)
	}
	if err := fw.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it reach temperature, then snap the thermistor wire: the plant
	// stops publishing (its divider is disconnected) and the pin floats
	// to the pull-up rail, which decodes as absurdly cold.
	e.Schedule(120*sim.Second, func() {
		plant.Stop()
		bus.ThermHotend.Set(4.999) // open circuit: reads ≈ -40 °C
	})
	for i := 0; !fw.Done() && i < 600; i++ {
		if err := e.Run(e.Now() + sim.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fw.Err() == nil {
		t.Fatal("open thermistor never tripped protection")
	}
	// And the heater output must be off, so the plant cools rather than
	// burns (the thermistor lies, but the MOSFET gate is what matters).
	if bus.Line(signal.PinHotend).Level() != signal.Low {
		t.Error("heater still powered after protection trip")
	}
	_ = plant
}
