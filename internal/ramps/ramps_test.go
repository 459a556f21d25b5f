package ramps

import (
	"math"
	"testing"
	"testing/quick"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

func newTestDriver(t *testing.T) (*sim.Engine, *signal.Bus, *Driver, *[]int) {
	t.Helper()
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	var steps []int
	d, err := NewDriver(bus, signal.AxisX, MicrostepSixteenth, func(_ sim.Time, delta int) {
		steps = append(steps, delta)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, bus, d, &steps
}

func TestDriverStepsOnRisingEdgeWhenEnabled(t *testing.T) {
	e, bus, d, steps := newTestDriver(t)
	// EN low = enabled (A4988 active-low).
	bus.Enable(signal.AxisX).Set(signal.Low)
	for i := 0; i < 3; i++ {
		bus.Step(signal.AxisX).Pulse(2 * sim.Microsecond)
		if err := e.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	if len(*steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(*steps))
	}
	for _, s := range *steps {
		if s != 1 {
			t.Errorf("step delta %d, want +1 (DIR low)", s)
		}
	}
	if d.StepsTaken() != 3 || d.StepsLost() != 0 {
		t.Errorf("taken=%d lost=%d", d.StepsTaken(), d.StepsLost())
	}
}

func TestDriverDirectionSampledAtEdge(t *testing.T) {
	e, bus, _, steps := newTestDriver(t)
	bus.Enable(signal.AxisX).Set(signal.Low)
	bus.Dir(signal.AxisX).Set(signal.High) // negative direction
	bus.Step(signal.AxisX).Pulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	bus.Dir(signal.AxisX).Set(signal.Low)
	bus.Step(signal.AxisX).Pulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*steps) != 2 || (*steps)[0] != -1 || (*steps)[1] != 1 {
		t.Errorf("steps = %v, want [-1 1]", *steps)
	}
}

func TestDriverGatedByEnable(t *testing.T) {
	e, bus, d, steps := newTestDriver(t)
	bus.Enable(signal.AxisX).Set(signal.High) // disabled
	bus.Step(signal.AxisX).Pulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*steps) != 0 {
		t.Fatal("disabled driver emitted a step")
	}
	if d.StepsSeen() != 1 || d.StepsLost() != 1 {
		t.Errorf("seen=%d lost=%d, want 1,1", d.StepsSeen(), d.StepsLost())
	}
	// Re-enable: steps flow again. This is Trojan T8's lever.
	bus.Enable(signal.AxisX).Set(signal.Low)
	bus.Step(signal.AxisX).Pulse(2 * sim.Microsecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(*steps) != 1 {
		t.Error("re-enabled driver did not step")
	}
}

func TestDriverRejectsBadArgs(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	if _, err := NewDriver(bus, signal.AxisX, MicrostepSixteenth, nil, nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := NewDriver(bus, signal.AxisX, Microstep(3), func(sim.Time, int) {}, nil); err == nil {
		t.Error("bogus microstep accepted")
	}
}

func TestMicrostepValid(t *testing.T) {
	for _, m := range []Microstep{1, 2, 4, 8, 16} {
		if !m.Valid() {
			t.Errorf("Microstep(%d) should be valid", m)
		}
	}
	for _, m := range []Microstep{0, 3, 32, -1} {
		if m.Valid() {
			t.Errorf("Microstep(%d) should be invalid", m)
		}
	}
}

func TestDriverAccessors(t *testing.T) {
	_, _, d, _ := newTestDriver(t)
	if d.Axis() != signal.AxisX {
		t.Error("Axis() wrong")
	}
	if d.Microstep() != MicrostepSixteenth {
		t.Error("Microstep() wrong")
	}
}

func TestThermistorMonotoneDecreasingVoltage(t *testing.T) {
	th := StandardThermistor()
	prev := th.Voltage(0)
	for temp := 10.0; temp <= 300; temp += 10 {
		v := th.Voltage(temp)
		if v >= prev {
			t.Fatalf("voltage not decreasing at %v°C: %v >= %v", temp, v, prev)
		}
		prev = v
	}
}

func TestThermistorKnownPoints(t *testing.T) {
	th := StandardThermistor()
	// At 25°C the NTC is 100k: divider = 5 * 100k/104.7k ≈ 4.78 V.
	if v := th.Voltage(25); math.Abs(v-4.7755) > 0.01 {
		t.Errorf("Voltage(25) = %v, want ≈4.776", v)
	}
	if r := th.Resistance(25); math.Abs(r-100_000) > 1 {
		t.Errorf("Resistance(25) = %v, want 100k", r)
	}
}

func TestThermistorRoundTrip(t *testing.T) {
	th := StandardThermistor()
	for _, temp := range []float64{0, 25, 60, 100, 210, 260} {
		back := th.Temperature(th.Voltage(temp))
		if math.Abs(back-temp) > 0.01 {
			t.Errorf("round trip %v°C -> %v°C", temp, back)
		}
	}
}

// Property: Temperature∘Voltage is the identity over the printing range.
func TestThermistorRoundTripProperty(t *testing.T) {
	th := StandardThermistor()
	f := func(raw uint16) bool {
		temp := float64(raw)/65535*300 - 20 // -20..280 °C
		back := th.Temperature(th.Voltage(temp))
		return math.Abs(back-temp) < 0.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThermistorFaultRails(t *testing.T) {
	th := StandardThermistor()
	if got := th.Temperature(th.VRef); got > -200 {
		t.Errorf("open thermistor reads %v, want cryogenic", got)
	}
	if got := th.Temperature(0); got < 500 {
		t.Errorf("shorted thermistor reads %v, want very hot", got)
	}
}

func TestMosfet(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	m := NewMosfet(bus, signal.PinHotend)
	if m.On() {
		t.Error("mosfet on at reset")
	}
	bus.Line(signal.PinHotend).Set(signal.High)
	if !m.On() {
		t.Error("mosfet did not turn on")
	}
}

func TestEndstop(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	es := NewEndstop(bus, signal.AxisZ)
	if es.Pressed() || bus.MinEndstop(signal.AxisZ).Level() != signal.Low {
		t.Error("endstop pressed at reset")
	}
	es.SetAt(e.Now(), true)
	es.SetAt(e.Now(), true) // idempotent
	if bus.MinEndstop(signal.AxisZ).Level() != signal.High {
		t.Error("endstop line not driven high")
	}
	if bus.MinEndstop(signal.AxisZ).Edges() != 1 {
		t.Errorf("endstop produced %d edges, want 1", bus.MinEndstop(signal.AxisZ).Edges())
	}
	es.SetAt(e.Now(), false)
	if bus.MinEndstop(signal.AxisZ).Level() != signal.Low {
		t.Error("endstop line not released")
	}
}

func TestDutyMeterConvergesToDuty(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	m := NewDutyMeter(bus, signal.PinFan, 200*sim.Millisecond)
	fan := bus.Line(signal.PinFan)

	// 60% duty, 20 ms period, for 2 s (10 time constants).
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 20 * sim.Millisecond
		e.Schedule(at, func() { fan.Set(signal.High) })
		e.Schedule(at+12*sim.Millisecond, func() { fan.Set(signal.Low) })
	}
	if err := e.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Duty(e.Now()); math.Abs(got-0.6) > 0.05 {
		t.Errorf("Duty = %v, want ≈0.6", got)
	}
}

func TestDutyMeterConstantLevels(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	m := NewDutyMeter(bus, signal.PinFan, 100*sim.Millisecond)
	if err := e.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Duty(e.Now()); got != 0 {
		t.Errorf("idle duty = %v, want 0", got)
	}
	bus.Line(signal.PinFan).Set(signal.High)
	if err := e.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.Duty(e.Now()); got < 0.99 {
		t.Errorf("saturated duty = %v, want ≈1", got)
	}
}

// Property: the duty estimate never leaves [0,1].
func TestDutyMeterBoundsProperty(t *testing.T) {
	f := func(toggles []uint8) bool {
		e := sim.NewEngine()
		bus := signal.NewBus(e)
		m := NewDutyMeter(bus, signal.PinFan, 50*sim.Millisecond)
		fan := bus.Line(signal.PinFan)
		at := sim.Time(0)
		for i, g := range toggles {
			at += sim.Time(g) * sim.Millisecond
			lv := signal.Low
			if i%2 == 0 {
				lv = signal.High
			}
			func(at sim.Time, lv signal.Level) {
				e.Schedule(at, func() { fan.Set(lv) })
			}(at, lv)
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		d := m.Duty(e.Now() + sim.Second)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDutyIntegratorExactWindows(t *testing.T) {
	e := sim.NewEngine()
	bus := signal.NewBus(e)
	d := NewDutyIntegrator(bus, signal.PinHotend)
	pin := bus.Line(signal.PinHotend)

	// Window 1: high 30 ms of 100 ms.
	e.Schedule(10*sim.Millisecond, func() { pin.Set(signal.High) })
	e.Schedule(40*sim.Millisecond, func() { pin.Set(signal.Low) })
	if err := e.Run(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.Window(e.Now()); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("window 1 duty = %v, want 0.3", got)
	}

	// Window 2: stays low the whole window.
	if err := e.Run(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.Window(e.Now()); got != 0 {
		t.Errorf("window 2 duty = %v, want 0", got)
	}

	// Window 3: high across the whole window (level set mid-window 2 has
	// been consumed; set it now and never drop it).
	pin.Set(signal.High)
	if err := e.Run(300 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := d.Window(e.Now()); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("window 3 duty = %v, want 1", got)
	}

	// Degenerate: zero-length window.
	if got := d.Window(e.Now()); got != 0 {
		t.Errorf("empty window duty = %v, want 0", got)
	}
}

// Property: DutyIntegrator windows always land in [0,1] and a window with
// no High time reads 0, for arbitrary toggle patterns.
func TestDutyIntegratorBoundsProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		e := sim.NewEngine()
		bus := signal.NewBus(e)
		d := NewDutyIntegrator(bus, signal.PinBed)
		pin := bus.Line(signal.PinBed)
		at := sim.Time(0)
		for i, g := range gaps {
			at += sim.Time(g%40+1) * sim.Millisecond
			lv := signal.Low
			if i%2 == 0 {
				lv = signal.High
			}
			func(at sim.Time, lv signal.Level) {
				e.Schedule(at, func() { pin.Set(lv) })
			}(at, lv)
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		duty := d.Window(e.Now() + sim.Millisecond)
		return duty >= 0 && duty <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExpNeg(t *testing.T) {
	if expNeg(-1) != 1 || expNeg(0) != 1 {
		t.Error("expNeg lower clamp")
	}
	if expNeg(100) != 0 {
		t.Error("expNeg upper clamp")
	}
	if math.Abs(expNeg(1)-math.Exp(-1)) > 1e-15 {
		t.Error("expNeg(1) wrong")
	}
}
