package firmware

import (
	"fmt"

	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// executeHoming implements G28: for each requested axis, in the configured
// order, drive toward the MIN endstop until it closes, back off, and
// re-approach slowly — Marlin's double-tap homing. The endstop actuation
// order this produces is exactly what the FPGA's Homing Detection Module
// watches for (paper §IV-B). Homing keeps no position: the compiled plan
// takes each homed axis to be at zero afterwards.
func (fw *Firmware) executeHoming(cmd gcode.Command) {
	if !fw.motorsEnabled {
		fw.setMotors(true)
	}
	fw.homeNextAxis(homedAxes(fw.cfg.HomingOrder, cmd), 0)
}

// homeNextAxis homes axes[i] then recurses; after the last axis the
// next command runs.
func (fw *Firmware) homeNextAxis(axes []signal.Axis, i int) {
	if fw.killed {
		return
	}
	if i >= len(axes) {
		fw.next()
		return
	}
	a := axes[i]
	fast := fw.cfg.HomingFeedrate[a]
	slow := fast / fw.cfg.HomingSlowDiv

	// Phase 1: fast approach until the endstop closes.
	fw.seekEndstop(a, fast, func() {
		// Phase 2: back off the bump distance.
		fw.bumpAway(a, slow, func() {
			// Phase 3: slow re-approach for repeatability.
			fw.seekEndstop(a, slow, func() {
				fw.homeNextAxis(axes, i+1)
			})
		})
	})
}

// seekEndstop steps axis a toward MIN at the given speed (mm/s) until its
// endstop reads pressed. It aborts the whole machine if the axis travels
// further than HomingMaxTravel without hitting the switch (crashed or
// missing endstop — a real failure mode RAMPS clones are notorious for).
func (fw *Firmware) seekEndstop(a signal.Axis, speed float64, done func()) {
	stepsPerMM := fw.cfg.StepsPerMM[a]
	period := sim.FromSeconds(1 / (speed * stepsPerMM))
	if period <= fw.cfg.StepPulseWidth {
		period = fw.cfg.StepPulseWidth * 2
	}
	limit := int(fw.cfg.HomingMaxTravel * stepsPerMM)
	endstop := fw.bus.MinEndstop(a)
	step := fw.bus.Step(a)

	fw.bus.Dir(a).Set(signal.High) // toward MIN
	taken := 0
	var tick func()
	tick = func() {
		if fw.killed {
			return
		}
		if endstop.Level() == signal.High {
			done()
			return
		}
		if taken >= limit {
			fw.halt(fmt.Errorf("firmware: homing %v failed: no endstop after %.0f mm", a, fw.cfg.HomingMaxTravel))
			return
		}
		taken++
		step.Set(signal.High)
		step.SetAfter(fw.cfg.StepPulseWidth, signal.Low)
		fw.engine.After(period, tick)
	}
	// Honour DIR setup before the first pulse.
	fw.engine.After(fw.cfg.DirSetup, tick)
}

// bumpAway moves axis a positive by the homing bump distance at the given
// speed, then calls done.
func (fw *Firmware) bumpAway(a signal.Axis, speed float64, done func()) {
	stepsPerMM := fw.cfg.StepsPerMM[a]
	period := sim.FromSeconds(1 / (speed * stepsPerMM))
	if period <= fw.cfg.StepPulseWidth {
		period = fw.cfg.StepPulseWidth * 2
	}
	n := int(fw.cfg.HomingBumpDist * stepsPerMM)
	step := fw.bus.Step(a)

	fw.bus.Dir(a).Set(signal.Low) // away from MIN
	taken := 0
	var tick func()
	tick = func() {
		if fw.killed {
			return
		}
		if taken >= n {
			done()
			return
		}
		taken++
		step.Set(signal.High)
		step.SetAfter(fw.cfg.StepPulseWidth, signal.Low)
		fw.engine.After(period, tick)
	}
	fw.engine.After(fw.cfg.DirSetup, tick)
}
