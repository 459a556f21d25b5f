package ramps

import (
	"math"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Mosfet models one of the RAMPS power outputs (D10 hotend, D8 bed): a
// logic-level MOSFET that connects the heater to the 24 V rail while its
// gate line is high. Trojan T7 exploits precisely this: with the gate
// forced high the element receives 100 % duty regardless of what the
// firmware's PID wants.
type Mosfet struct {
	line *signal.Line
}

// NewMosfet attaches to the named power pin of bus.
func NewMosfet(bus *signal.Bus, pin string) *Mosfet {
	return &Mosfet{line: bus.Line(pin)}
}

// On reports whether the output is currently conducting.
func (m *Mosfet) On() bool { return m.line.Level() == signal.High }

// Endstop models a mechanical limit switch wired to a MIN endstop input.
// The plant calls SetAt as the carriage enters/leaves the switch travel,
// with the time of the step that moved it; the switch drives the
// feedback line toward the Arduino (and the FPGA, which snoops it for
// homing detection). That step may be one a lazy step train applies
// late, so the edge carries the step's timestamp, not Now, and a switch
// whose line carries only quiet listeners (Quiet) lets the train run
// lazily through a crossing.
//
// Polarity: pressed = High, matching the paper's added mechanical
// endstops in their normally-open wiring.
type Endstop struct {
	line    *signal.Line
	pressed bool
}

// NewEndstop attaches a switch to the axis's MIN endstop line on bus.
func NewEndstop(bus *signal.Bus, axis signal.Axis) *Endstop {
	return &Endstop{line: bus.MinEndstop(axis)}
}

// SetAt drives the switch state onto the line as of time at.
func (e *Endstop) SetAt(at sim.Time, pressed bool) {
	if pressed == e.pressed {
		return
	}
	e.pressed = pressed
	if pressed {
		e.line.SetAt(at, signal.High)
	} else {
		e.line.SetAt(at, signal.Low)
	}
}

// Pressed reports the current switch state.
func (e *Endstop) Pressed() bool {
	e.line.Sync()
	return e.pressed
}

// Quiet reports whether the switch's line carries only quiet listeners.
func (e *Endstop) Quiet() bool { return e.line.Quiet() }

// DutyMeter estimates the recent duty cycle of a PWM line with an
// exponentially-weighted moving average. The plant uses one on the fan
// output (D9): a fan's rotational inertia low-passes the PWM exactly like
// this, so the cooling effect follows the average duty, not the
// instantaneous gate state.
type DutyMeter struct {
	line *signal.Line
	tau  sim.Time // smoothing time constant

	duty     float64
	level    signal.Level
	lastEdge sim.Time
}

// NewDutyMeter attaches a meter with time constant tau to the named pin.
func NewDutyMeter(bus *signal.Bus, pin string, tau sim.Time) *DutyMeter {
	m := &DutyMeter{line: bus.Line(pin), tau: tau}
	m.level = m.line.Level()
	m.line.Watch(func(at sim.Time, level signal.Level) {
		m.fold(at)
		m.level = level
	})
	return m
}

// fold integrates the line level from the last edge to now into the EWMA.
func (m *DutyMeter) fold(now sim.Time) {
	dt := now - m.lastEdge
	if dt <= 0 {
		return
	}
	target := 0.0
	if m.level == signal.High {
		target = 1.0
	}
	// One-pole low-pass response over dt.
	alpha := 1.0 - expNeg(float64(dt)/float64(m.tau))
	m.duty += (target - m.duty) * alpha
	m.lastEdge = now
}

// Duty returns the smoothed duty estimate as of time now.
func (m *DutyMeter) Duty(now sim.Time) float64 {
	m.fold(now)
	return m.duty
}

// DutyIntegrator measures the exact fraction of time a line spent high
// between consecutive Window calls. The plant uses one per heater MOSFET:
// a resistive heater has no inertia worth modelling separately, but the
// thermal integration step must see the *average* power over its window,
// not the instantaneous gate state at the sampling instant — otherwise a
// software-PWM waveform aliases against the thermal tick.
type DutyIntegrator struct {
	line     *signal.Line
	level    signal.Level
	lastEdge sim.Time
	highTime sim.Time
	winStart sim.Time
}

// NewDutyIntegrator attaches an integrator to the named pin.
func NewDutyIntegrator(bus *signal.Bus, pin string) *DutyIntegrator {
	d := &DutyIntegrator{line: bus.Line(pin)}
	d.level = d.line.Level()
	d.line.Watch(func(at sim.Time, level signal.Level) {
		d.fold(at)
		d.level = level
	})
	return d
}

func (d *DutyIntegrator) fold(now sim.Time) {
	if d.level == signal.High && now > d.lastEdge {
		d.highTime += now - d.lastEdge
	}
	d.lastEdge = now
}

// Window returns the duty fraction since the previous Window call (or
// since creation) and starts a new window ending at now.
func (d *DutyIntegrator) Window(now sim.Time) float64 {
	d.fold(now)
	span := now - d.winStart
	if span <= 0 {
		return 0
	}
	duty := float64(d.highTime) / float64(span)
	d.highTime = 0
	d.winStart = now
	d.lastEdge = now
	return duty
}

// expNeg computes e^(-x) clamped for the extreme arguments the meter can
// produce after long idle intervals.
func expNeg(x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x > 40 {
		return 0
	}
	return math.Exp(-x)
}
