// Package firmware is a behavioural twin of Marlin running on an Arduino
// Mega: it consumes G-code and drives the Arduino-side bus with exactly the
// signals the paper's FPGA intercepts — STEP/DIR/EN pulse trains shaped by
// a trapezoidal motion planner, PID-controlled heater PWM on D8/D10, fan
// PWM on D9, endstop-driven homing, and thermal-runaway protection.
//
// Fidelity notes (what the experiments depend on):
//   - Step frequency stays below 20 kHz and step pulses are ≥ 1 µs wide,
//     matching the envelope the paper measured on the real stack (§V-B).
//   - Execution timing carries seeded "time noise" — the asynchronous
//     variation between identical prints (§V-C, [30]) that motivates the
//     detector's 5 % margin.
//   - Thermal protection mirrors Marlin: a heat-up watchdog (temperature
//     must keep rising while far from target) and a MAXTEMP cutoff. The
//     heater trojans T6/T7 are judged by how the firmware reacts (§IV-C).
package firmware

import (
	"fmt"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// PID holds controller gains for a heater loop. Output is MOSFET duty in
// [0,1]. Feedforward supplies the steady-state duty (loss/power × ΔT),
// which is how shipped Marlin configs behave after autotune.
type PID struct {
	Kp, Ki, Kd float64
	// Kff is feedforward duty per °C above ambient.
	Kff float64
}

// Config parameterizes the firmware build, mirroring Configuration.h.
type Config struct {
	// StepsPerMM must match the machine (and the plant model).
	StepsPerMM map[signal.Axis]float64
	// MaxFeedrate caps commanded speed per axis, mm/s.
	MaxFeedrate map[signal.Axis]float64
	// Acceleration for the trapezoidal planner, mm/s².
	Acceleration float64
	// MaxStepRate caps any axis's step frequency, Hz. The Mega's stepper
	// ISR tops out well under this; the paper measured < 20 kHz.
	MaxStepRate float64
	// StepPulseWidth is the STEP high time.
	StepPulseWidth sim.Time
	// DirSetup is the DIR-to-STEP setup time.
	DirSetup sim.Time
	// DefaultFeedrate applies when no F word has been seen, mm/min.
	DefaultFeedrate float64

	// Homing.
	HomingFeedrate  map[signal.Axis]float64 // fast approach, mm/s
	HomingBumpDist  float64                 // back-off before slow re-approach, mm
	HomingSlowDiv   float64                 // slow approach = fast/HomingSlowDiv
	HomingOrder     []signal.Axis           // axis homing order (X, Y, Z)
	HomingMaxTravel float64                 // abort homing after this many mm

	// Heaters.
	HotendPID       PID
	BedPID          PID
	PWMPeriod       sim.Time // software PWM window for heater outputs
	ControlPeriod   sim.Time // PID loop period
	HotendMaxTemp   float64  // MAXTEMP cutoff, °C
	BedMaxTemp      float64
	ReachHysteresis float64 // M109/M190 completion band, °C

	// Thermal runaway protection (heat-up watch).
	WatchPeriod   sim.Time // window length
	WatchIncrease float64  // required rise per window while heating, °C
	WatchMargin   float64  // "far from target" threshold, °C

	// Fan.
	FanPWMPeriod sim.Time

	// Time noise: each command's start is delayed by a uniform random
	// amount in [0, TimeNoise], seeded by Seed. Zero disables noise.
	TimeNoise sim.Time
	Seed      uint64

	// InterCommandDelay models G-code parse/dispatch latency on the Mega.
	InterCommandDelay sim.Time

	// UARTBaud for the display link transmitter.
	UARTBaud int
}

// DefaultConfig mirrors a stock RAMPS Marlin for the simulated Prusa.
func DefaultConfig() Config {
	return Config{
		StepsPerMM: map[signal.Axis]float64{
			signal.AxisX: 80, signal.AxisY: 80, signal.AxisZ: 400, signal.AxisE: 96,
		},
		MaxFeedrate: map[signal.Axis]float64{
			signal.AxisX: 200, signal.AxisY: 200, signal.AxisZ: 12, signal.AxisE: 120,
		},
		Acceleration:    1200,
		MaxStepRate:     18_000,
		StepPulseWidth:  2 * sim.Microsecond,
		DirSetup:        20 * sim.Microsecond,
		DefaultFeedrate: 1500,

		HomingFeedrate: map[signal.Axis]float64{
			signal.AxisX: 50, signal.AxisY: 50, signal.AxisZ: 8,
		},
		HomingBumpDist:  2,
		HomingSlowDiv:   5,
		HomingOrder:     []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ},
		HomingMaxTravel: 320,

		HotendPID:       PID{Kp: 0.05, Ki: 0.0008, Kd: 0.02, Kff: 0.00275},
		BedPID:          PID{Kp: 0.12, Ki: 0.0015, Kd: 0, Kff: 0.0086},
		PWMPeriod:       100 * sim.Millisecond,
		ControlPeriod:   100 * sim.Millisecond,
		HotendMaxTemp:   275,
		BedMaxTemp:      130,
		ReachHysteresis: 2,

		WatchPeriod:   20 * sim.Second,
		WatchIncrease: 2,
		WatchMargin:   8,

		FanPWMPeriod: 20 * sim.Millisecond,

		TimeNoise:         200 * sim.Microsecond,
		Seed:              1,
		InterCommandDelay: 150 * sim.Microsecond,

		UARTBaud: 115_200,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	for _, a := range signal.Axes {
		if c.StepsPerMM[a] <= 0 {
			return fmt.Errorf("firmware: StepsPerMM[%v] must be positive", a)
		}
		if c.MaxFeedrate[a] <= 0 {
			return fmt.Errorf("firmware: MaxFeedrate[%v] must be positive", a)
		}
	}
	switch {
	case c.Acceleration <= 0:
		return fmt.Errorf("firmware: Acceleration must be positive")
	case c.MaxStepRate <= 0:
		return fmt.Errorf("firmware: MaxStepRate must be positive")
	case c.StepPulseWidth <= 0:
		return fmt.Errorf("firmware: StepPulseWidth must be positive")
	case c.DefaultFeedrate <= 0:
		return fmt.Errorf("firmware: DefaultFeedrate must be positive")
	case len(c.HomingOrder) == 0:
		return fmt.Errorf("firmware: HomingOrder must not be empty")
	case c.HomingBumpDist <= 0 || c.HomingSlowDiv <= 0 || c.HomingMaxTravel <= 0:
		return fmt.Errorf("firmware: homing parameters must be positive")
	case c.PWMPeriod <= 0 || c.ControlPeriod <= 0 || c.FanPWMPeriod <= 0:
		return fmt.Errorf("firmware: PWM/control periods must be positive")
	case c.HotendMaxTemp <= 0 || c.BedMaxTemp <= 0:
		return fmt.Errorf("firmware: max temperatures must be positive")
	case c.WatchPeriod <= 0 || c.WatchIncrease <= 0 || c.WatchMargin <= 0:
		return fmt.Errorf("firmware: thermal watch parameters must be positive")
	case c.TimeNoise < 0:
		return fmt.Errorf("firmware: TimeNoise must be non-negative")
	case c.UARTBaud <= 0:
		return fmt.Errorf("firmware: UARTBaud must be positive")
	}
	for _, a := range c.HomingOrder {
		if c.HomingFeedrate[a] <= 0 {
			return fmt.Errorf("firmware: HomingFeedrate[%v] must be positive", a)
		}
	}
	return nil
}
