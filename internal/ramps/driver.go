// Package ramps models the RAMPS 1.4 printer control board: A4988 stepper
// drivers with microstep jumpers and active-low enable, the D8/D10 heater
// MOSFETs, the D9 fan output, mechanical endstop switches, and the 100k NTC
// thermistor dividers (paper Section III-C3).
//
// The board is the *actuation* layer: it converts the logic-level signals
// arriving from the Arduino (possibly modified by the OFFRAMPS FPGA in
// between) into motor steps and heater power for the printer plant, and it
// drives the feedback lines (endstops, thermistors) back toward the
// Arduino.
package ramps

import (
	"fmt"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Microstep is an A4988 microstepping mode selected by the MS1..MS3
// jumpers on the RAMPS board.
type Microstep int

// A4988 microstep divisors. RAMPS ships with all three jumpers installed:
// 1/16 stepping, the configuration the paper uses ("we opted to use the
// default A4988 drivers shipped with RAMPS").
const (
	MicrostepFull      Microstep = 1
	MicrostepHalf      Microstep = 2
	MicrostepQuarter   Microstep = 4
	MicrostepEighth    Microstep = 8
	MicrostepSixteenth Microstep = 16
)

// Valid reports whether m is a legal A4988 divisor.
func (m Microstep) Valid() bool {
	switch m {
	case MicrostepFull, MicrostepHalf, MicrostepQuarter, MicrostepEighth, MicrostepSixteenth:
		return true
	}
	return false
}

// StepHandler receives motor micro-steps: +1 for one microstep in the
// positive direction, -1 for negative. It runs synchronously inside the
// simulation event that produced the STEP edge.
type StepHandler func(at sim.Time, delta int)

// Driver is one A4988 stepper driver socket. It watches the STEP, DIR and
// EN lines of its axis and emits microsteps to the attached handler.
//
// Behavioural notes that matter to the trojans:
//   - Steps fire on the rising edge of STEP, and only while EN is low
//     (A4988 /ENABLE is active-low). Trojan T8 works by yanking EN high,
//     which silently discards steps — the motor freewheels.
//   - DIR is sampled at the STEP edge. The A4988 requires 200 ns setup;
//     the firmware twin honours a wider margin, and the Driver checks the
//     level at the edge like the silicon does.
type Driver struct {
	axis      signal.Axis
	microstep Microstep
	handler   StepHandler

	step *signal.Line
	dir  *signal.Line
	en   *signal.Line

	// stepsSeen counts rising STEP edges regardless of EN gating;
	// stepsTaken counts microsteps actually emitted.
	stepsSeen  uint64
	stepsTaken uint64

	// quiet, when set, vouches that the handler drives no line for a
	// batch of steps (see NewDriver).
	quiet QuietFunc
}

// driverSink is the driver's STEP-line listener. It is a signal.Sink:
// it reads only EN and DIR, which a lazy step train cannot change.
type driverSink Driver

// Edge steps the motor on a rising STEP edge while EN is low.
func (s *driverSink) Edge(at sim.Time, level signal.Level) {
	if level != signal.High {
		return
	}
	d := (*Driver)(s)
	d.stepsSeen++
	if d.en.Level() == signal.High {
		return // disabled: motor freewheels, step lost
	}
	d.stepsTaken++
	delta := 1
	if d.dir.Level() == signal.High {
		delta = -1
	}
	d.handler(at, delta)
}

// Quiet implements signal.Quieter: a driver is quiet only when its
// handler's owner says so through the QuietFunc given to NewDriver.
func (s *driverSink) Quiet(n int, negative bool) bool {
	return s.quiet != nil && s.quiet(n, negative)
}

// QuietFunc reports whether n more steps in the given direction
// (negative = DIR High) leave every line but STEP untouched by a
// driver's handler.
type QuietFunc func(n int, negative bool) bool

// NewDriver attaches a driver to the axis's pins on bus. handler receives
// the microsteps; it must be non-nil. quiet, when non-nil, is the
// handler owner's QuietFunc: only a quiet driver lets its STEP line
// carry a lazy step train, so without it the driver never does.
func NewDriver(bus *signal.Bus, axis signal.Axis, microstep Microstep, handler StepHandler, quiet QuietFunc) (*Driver, error) {
	if handler == nil {
		return nil, fmt.Errorf("ramps: driver for %v needs a step handler", axis)
	}
	if !microstep.Valid() {
		return nil, fmt.Errorf("ramps: invalid microstep divisor %d", microstep)
	}
	d := &Driver{
		axis:      axis,
		microstep: microstep,
		handler:   handler,
		quiet:     quiet,
		step:      bus.Step(axis),
		dir:       bus.Dir(axis),
		en:        bus.Enable(axis),
	}
	d.step.Attach((*driverSink)(d))
	return d, nil
}

// Axis reports which axis the driver serves.
func (d *Driver) Axis() signal.Axis { return d.axis }

// Microstep reports the configured divisor.
func (d *Driver) Microstep() Microstep { return d.microstep }

// StepsSeen reports rising STEP edges observed, including gated ones.
func (d *Driver) StepsSeen() uint64 {
	d.step.Sync()
	return d.stepsSeen
}

// StepsTaken reports microsteps actually delivered to the motor.
func (d *Driver) StepsTaken() uint64 {
	d.step.Sync()
	return d.stepsTaken
}

// StepsLost reports edges discarded because the driver was disabled.
func (d *Driver) StepsLost() uint64 {
	d.step.Sync()
	return d.stepsSeen - d.stepsTaken
}
