package printer

import (
	"fmt"

	"offramps/internal/ramps"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Config parameterizes the physical machine.
type Config struct {
	// StepsPerMM is the full microstepped resolution per axis. Defaults
	// match a RepRap-configured Marlin on RAMPS with A4988s at 1/16:
	// GT2 belts on X/Y, M5 leadscrew on Z, geared extruder.
	StepsPerMM map[signal.Axis]float64
	// TravelMax is the usable axis length in mm (X, Y, Z).
	TravelMax map[signal.Axis]float64
	// StartPos is the carriage position at power-on, mm from the MIN
	// endstops. The paper notes the steps-to-home count depends on this
	// arbitrary position — experiments can randomize it.
	StartPos map[signal.Axis]float64
	// Ambient temperature, °C.
	Ambient float64
	// Hotend and Bed thermal parameters.
	Hotend ThermalConfig
	Bed    ThermalConfig
	// ThermalTick is the integration step for the thermal models.
	ThermalTick sim.Time
	// LayerQuantum buckets deposition Z values into layers.
	LayerQuantum float64
	// FanTau is the fan inertia time constant for the duty meter.
	FanTau sim.Time
	// DepositBuffer, when non-nil, is a recycled deposit ledger (length
	// zero, capacity retained) the plant's Part records into instead of
	// growing a fresh one — donated by a pooled testbed core. Ownership
	// transfers to the Part; the donor must not reuse the slice while
	// the Part is live.
	DepositBuffer []Deposit
}

// DefaultConfig returns the simulated Prusa-on-RAMPS used throughout the
// experiments.
func DefaultConfig() Config {
	return Config{
		StepsPerMM: map[signal.Axis]float64{
			signal.AxisX: 80, signal.AxisY: 80, signal.AxisZ: 400, signal.AxisE: 96,
		},
		TravelMax: map[signal.Axis]float64{
			signal.AxisX: 250, signal.AxisY: 210, signal.AxisZ: 210,
		},
		StartPos: map[signal.Axis]float64{
			signal.AxisX: 55, signal.AxisY: 40, signal.AxisZ: 8,
		},
		Ambient:      25,
		Hotend:       HotendThermalDefaults(),
		Bed:          BedThermalDefaults(),
		ThermalTick:  100 * sim.Millisecond,
		LayerQuantum: 0.2,
		FanTau:       500 * sim.Millisecond,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	for _, a := range signal.Axes {
		if c.StepsPerMM[a] <= 0 {
			return fmt.Errorf("printer: StepsPerMM[%v] must be positive", a)
		}
	}
	for _, a := range []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ} {
		if c.TravelMax[a] <= 0 {
			return fmt.Errorf("printer: TravelMax[%v] must be positive", a)
		}
		if c.StartPos[a] < 0 || c.StartPos[a] > c.TravelMax[a] {
			return fmt.Errorf("printer: StartPos[%v]=%v outside travel 0..%v",
				a, c.StartPos[a], c.TravelMax[a])
		}
	}
	if c.ThermalTick <= 0 {
		return fmt.Errorf("printer: ThermalTick must be positive")
	}
	if err := c.Hotend.Validate(); err != nil {
		return err
	}
	if err := c.Bed.Validate(); err != nil {
		return err
	}
	return nil
}

// axisState tracks one mechanical axis.
type axisState struct {
	posMM      float64 // carriage position, mm from MIN hard stop
	stepsPerMM float64
	min, max   float64 // clamp range, mm
	netSteps   int64   // net microsteps delivered (diagnostics)
	lostLow    uint64  // steps lost against the MIN hard stop
	lostHigh   uint64  // steps lost against the MAX hard stop
}

// Plant is the running physical machine. It attaches RAMPS actuators to
// the board-side bus and integrates motion, heat, and deposition.
type Plant struct {
	cfg    Config
	engine *sim.Engine
	bus    *signal.Bus

	// Per-axis state, indexed by signal.Axis (index 0 unused; E has no
	// endstop).
	axes     [signal.AxisE + 1]*axisState
	drivers  [signal.AxisE + 1]*ramps.Driver
	endstops [signal.AxisE + 1]*ramps.Endstop

	hotendMosfet *ramps.Mosfet
	bedMosfet    *ramps.Mosfet
	hotendDuty   *ramps.DutyIntegrator
	bedDuty      *ramps.DutyIntegrator
	fanMeter     *ramps.DutyMeter
	thermistor   ramps.Thermistor

	hotend *thermalBody
	bed    *thermalBody

	part *Part
	// retractDebt is filament pulled back into the nozzle; positive E
	// steps pay it down before depositing again.
	retractDebt float64
	// peakFanDuty is the highest smoothed fan duty observed at a thermal
	// tick — how much cooling the part actually received at its best.
	peakFanDuty float64

	stopThermal func()
}

// NewPlant builds the machine on the RAMPS-side bus and starts its thermal
// integration ticker.
//
// The endstop trigger convention: an axis's MIN switch is pressed whenever
// the carriage sits at or below 0 mm. The hard stop is a short distance
// further; steps commanded into the hard stop are lost (the real motor
// skips), which is what makes homing idempotent.
func NewPlant(engine *sim.Engine, bus *signal.Bus, cfg Config) (*Plant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Plant{
		cfg:        cfg,
		engine:     engine,
		bus:        bus,
		thermistor: ramps.StandardThermistor(),
		part:       NewPart(cfg.LayerQuantum),
	}
	if cfg.DepositBuffer != nil {
		p.part.deposits = cfg.DepositBuffer[:0]
	}

	const hardStopBelow = 0.5 // mm of crush travel below the endstop
	for _, a := range signal.Axes {
		st := &axisState{stepsPerMM: cfg.StepsPerMM[a]}
		if a == signal.AxisE {
			// Filament axis: unbounded in both directions.
			st.min, st.max = -1e12, 1e12
		} else {
			st.min, st.max = -hardStopBelow, cfg.TravelMax[a]
			st.posMM = cfg.StartPos[a]
		}
		p.axes[a] = st

		a := a
		d, err := ramps.NewDriver(bus, a, ramps.MicrostepSixteenth, func(at sim.Time, delta int) {
			p.onStep(a, at, delta)
		}, func(n int, negative bool) bool {
			return p.quiet(a, n, negative)
		})
		if err != nil {
			return nil, err
		}
		p.drivers[a] = d
	}
	for _, a := range []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ} {
		p.endstops[a] = ramps.NewEndstop(bus, a)
		p.refreshEndstop(a)
	}

	p.hotendMosfet = ramps.NewMosfet(bus, signal.PinHotend)
	p.bedMosfet = ramps.NewMosfet(bus, signal.PinBed)
	p.hotendDuty = ramps.NewDutyIntegrator(bus, signal.PinHotend)
	p.bedDuty = ramps.NewDutyIntegrator(bus, signal.PinBed)
	p.fanMeter = ramps.NewDutyMeter(bus, signal.PinFan, cfg.FanTau)
	p.hotend = newThermalBody(cfg.Hotend, cfg.Ambient)
	p.bed = newThermalBody(cfg.Bed, cfg.Ambient)

	// Publish initial thermistor readings so the firmware's first ADC
	// sample is sane, then integrate on the ticker.
	p.publishTemps()
	p.stopThermal = engine.Ticker(cfg.ThermalTick, p.thermalTick)
	return p, nil
}

// onStep applies one microstep to an axis and runs deposition.
func (p *Plant) onStep(a signal.Axis, _ sim.Time, delta int) {
	st := p.axes[a]
	moved := float64(delta) / st.stepsPerMM
	next := st.posMM + moved
	if next < st.min {
		st.lostLow++
		next = st.min
	} else if next > st.max {
		st.lostHigh++
		next = st.max
	}
	st.posMM = next
	st.netSteps += int64(delta)

	if a == signal.AxisE {
		p.deposit(moved)
	}
	p.refreshEndstop(a)
}

// deposit handles extruder motion: retraction builds debt, forward motion
// pays it down and then lays material at the current nozzle position.
func (p *Plant) deposit(filament float64) {
	if filament < 0 {
		p.retractDebt -= filament // debt grows
		return
	}
	if p.retractDebt > 0 {
		if filament <= p.retractDebt {
			p.retractDebt -= filament
			return
		}
		filament -= p.retractDebt
		p.retractDebt = 0
	}
	if filament <= 0 {
		return
	}
	p.part.Add(Deposit{
		X:        p.axes[signal.AxisX].posMM,
		Y:        p.axes[signal.AxisY].posMM,
		Z:        p.axes[signal.AxisZ].posMM,
		Filament: filament,
	})
}

// quiet reports whether n more steps of axis a in the given direction
// leave its MIN switch as it is, so onStep drives no line while they
// run. Position moves monotonically through such a batch; the slack
// dwarfs float drift, so a batch ending within it of the switch counts
// as a crossing.
func (p *Plant) quiet(a signal.Axis, n int, negative bool) bool {
	if p.endstops[a] == nil {
		return true
	}
	const slack = 1e-6 // mm
	pos := p.axes[a].posMM
	span := float64(n) / p.axes[a].stepsPerMM
	if negative {
		return pos <= 0 || pos-span > slack
	}
	return pos > 0 || pos+span < -slack
}

// sync applies every step a lazy train has deferred up to Now, so a
// reader between engine events sees current state.
func (p *Plant) sync() {
	for _, a := range signal.Axes {
		p.bus.Step(a).Sync()
	}
}

// axis returns the state of a, or nil for a value that names no axis.
func (p *Plant) axis(a signal.Axis) *axisState {
	if a < signal.AxisX || a > signal.AxisE {
		return nil
	}
	p.sync()
	return p.axes[a]
}

// refreshEndstop drives the axis's MIN switch from the carriage position.
func (p *Plant) refreshEndstop(a signal.Axis) {
	es := p.endstops[a]
	if es == nil {
		return
	}
	es.SetPressed(p.axes[a].posMM <= 0)
}

// thermalTick integrates both heater bodies and refreshes the thermistor
// outputs.
func (p *Plant) thermalTick(at sim.Time) {
	dt := p.cfg.ThermalTick.Seconds()
	fan := p.fanMeter.Duty(at)
	if fan > p.peakFanDuty {
		p.peakFanDuty = fan
	}
	p.hotend.step(at, dt, p.hotendDuty.Window(at), fan)
	p.bed.step(at, dt, p.bedDuty.Window(at), 0)
	p.publishTemps()
}

func (p *Plant) publishTemps() {
	p.bus.ThermHotend.Set(p.thermistor.Voltage(p.hotend.temp))
	p.bus.ThermBed.Set(p.thermistor.Voltage(p.bed.temp))
}

// Stop cancels the thermal ticker (for tests that want the event queue to
// drain).
func (p *Plant) Stop() { p.stopThermal() }

// Position reports the carriage position of an axis in mm; 0 for a
// value that names no axis.
func (p *Plant) Position(a signal.Axis) float64 {
	if st := p.axis(a); st != nil {
		return st.posMM
	}
	return 0
}

// NetSteps reports the net microsteps delivered to an axis; 0 for a
// value that names no axis.
func (p *Plant) NetSteps(a signal.Axis) int64 {
	if st := p.axis(a); st != nil {
		return st.netSteps
	}
	return 0
}

// LostSteps reports steps lost against the hard stops (low, high);
// zeros for a value that names no axis.
func (p *Plant) LostSteps(a signal.Axis) (low, high uint64) {
	if st := p.axis(a); st != nil {
		return st.lostLow, st.lostHigh
	}
	return 0, 0
}

// Driver exposes the axis driver (test instrumentation); nil for a value
// that names no axis.
func (p *Plant) Driver(a signal.Axis) *ramps.Driver {
	if a < signal.AxisX || a > signal.AxisE {
		return nil
	}
	return p.drivers[a]
}

// HotendTemp reports the current hotend temperature, °C.
func (p *Plant) HotendTemp() float64 { return p.hotend.temp }

// BedTemp reports the current bed temperature, °C.
func (p *Plant) BedTemp() float64 { return p.bed.temp }

// PeakHotendTemp reports the maximum hotend temperature reached.
func (p *Plant) PeakHotendTemp() float64 { return p.hotend.peak }

// PeakBedTemp reports the maximum bed temperature reached.
func (p *Plant) PeakBedTemp() float64 { return p.bed.peak }

// HotendExceededSafe reports whether the hotend passed its working spec —
// the T7 success criterion.
func (p *Plant) HotendExceededSafe() bool { return p.hotend.exceededSafe() }

// HotendHistory returns the recorded hotend temperature samples.
func (p *Plant) HotendHistory() []TempSample { return p.hotend.history }

// BedHistory returns the recorded bed temperature samples.
func (p *Plant) BedHistory() []TempSample { return p.bed.history }

// FanDuty reports the smoothed part-fan duty at the current time.
func (p *Plant) FanDuty() float64 { return p.fanMeter.Duty(p.engine.Now()) }

// PeakFanDuty reports the highest smoothed fan duty seen during the run.
func (p *Plant) PeakFanDuty() float64 { return p.peakFanDuty }

// Part returns the deposition ledger, current to Now.
func (p *Plant) Part() *Part {
	p.sync()
	return p.part
}

// Thermistor returns the NTC model used for the feedback channels.
func (p *Plant) Thermistor() ramps.Thermistor { return p.thermistor }
