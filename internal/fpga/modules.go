package fpga

import (
	"fmt"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// EdgeDetector is the paper's Edge Detection Module: it identifies events
// such as print-head movements or extrusions by watching STEP/DIR edges
// (§IV-B). It counts rising and falling edges on one line and invokes an
// optional handler on rising edges.
type EdgeDetector struct {
	line    *signal.Line
	rising  uint64
	falling uint64
	onRise  []func(at sim.Time)
}

// NewEdgeDetector attaches a detector to line. Its rising-edge hooks
// are arbitrary code, so it watches the line like any other listener
// and keeps the line's step trains eager.
func NewEdgeDetector(line *signal.Line) *EdgeDetector {
	d := &EdgeDetector{line: line}
	line.Watch((*detectorSink)(d).Edge)
	return d
}

// newTapDetector attaches a detector for the board's own tap: its only
// hook is an AxisTracker's, which is replay-safe, so it attaches as a
// signal.Sink.
func newTapDetector(line *signal.Line) *EdgeDetector {
	d := &EdgeDetector{line: line}
	line.Attach((*detectorSink)(d))
	return d
}

// detectorSink is an EdgeDetector's line listener.
type detectorSink EdgeDetector

// Edge counts the edge and runs the rising-edge hooks.
func (s *detectorSink) Edge(at sim.Time, level signal.Level) {
	if level == signal.High {
		s.rising++
		for _, fn := range s.onRise {
			fn(at)
		}
	} else {
		s.falling++
	}
}

// OnRising registers fn to run at every rising edge.
func (d *EdgeDetector) OnRising(fn func(at sim.Time)) {
	if fn == nil {
		panic("fpga: OnRising(nil)")
	}
	d.onRise = append(d.onRise, fn)
}

// Rising reports the rising-edge count.
func (d *EdgeDetector) Rising() uint64 {
	d.line.Sync()
	return d.rising
}

// Falling reports the falling-edge count.
func (d *EdgeDetector) Falling() uint64 {
	d.line.Sync()
	return d.falling
}

// PulseGenerator is the paper's Pulse Generation Module: it produces step
// pulses with configurable frequency and width for trojan injection
// (§IV-B). It drives pulses through a PinPath so the trojan multiplexing
// rules apply.
type PulseGenerator struct {
	path   *PinPath
	engine *sim.Engine
	period sim.Time
	width  sim.Time

	running   bool
	remaining int
	onDone    func()
}

// NewPulseGenerator builds a generator on path emitting pulses of the
// given frequency (Hz) and width.
func NewPulseGenerator(path *PinPath, frequency float64, width sim.Time) (*PulseGenerator, error) {
	if frequency <= 0 {
		return nil, fmt.Errorf("fpga: pulse generator frequency must be positive, got %v", frequency)
	}
	if width <= 0 {
		return nil, fmt.Errorf("fpga: pulse generator width must be positive, got %v", width)
	}
	period := sim.FromSeconds(1 / frequency)
	if period <= width {
		return nil, fmt.Errorf("fpga: pulse generator width %v does not fit period %v", width, period)
	}
	return &PulseGenerator{
		path:   path,
		engine: path.board.engine,
		period: period,
		width:  width,
	}, nil
}

// Burst emits n pulses then stops, invoking done (which may be nil).
// Calling Burst while a burst is running is an error.
//
// The first pulse fires half a period after the call rather than
// immediately: trojan bursts are usually triggered from a source edge
// callback, and the offset places injected pulses "in between the
// original control pulses" (paper §IV-C T1) instead of merging the first
// injection into the triggering pulse.
func (g *PulseGenerator) Burst(n int, done func()) error {
	if g.running {
		return fmt.Errorf("fpga: pulse generator busy")
	}
	if n <= 0 {
		return fmt.Errorf("fpga: burst count must be positive, got %d", n)
	}
	g.running = true
	g.remaining = n
	g.onDone = done
	g.engine.After(g.period/2, g.tick)
	return nil
}

// Running reports whether a burst is in progress.
func (g *PulseGenerator) Running() bool { return g.running }

func (g *PulseGenerator) tick() {
	if g.remaining <= 0 {
		g.running = false
		if g.onDone != nil {
			g.onDone()
		}
		return
	}
	g.remaining--
	g.path.InjectPulse(g.width)
	g.engine.After(g.period, g.tick)
}

// homingPhase tracks the double-tap progress of one axis.
type homingPhase int

const (
	phasePending homingPhase = iota
	phaseFirstTap
	phaseDone
)

// HomingDetector is the paper's Homing Detection Module: "a state machine
// which tracks actuation of the endstops in a defined order to determine
// when the print head has homed" (§IV-B). Marlin double-taps each endstop
// (fast approach, back-off, slow approach), so the detector waits for two
// presses per axis, in X→Y→Z order, then declares the machine homed.
//
// Homing is the synchronization anchor of the whole monitoring design:
// step counters reset here, and capture export begins at the first STEP
// edge after it.
type HomingDetector struct {
	axes    []signal.Axis
	phase   map[signal.Axis]homingPhase
	current int
	homed   bool
	homedAt sim.Time
	onHomed []func(at sim.Time)
}

// NewHomingDetector watches the endstop lines of bus (the RAMPS side,
// where the switches live).
func NewHomingDetector(bus *signal.Bus) *HomingDetector {
	d := &HomingDetector{
		axes:  []signal.Axis{signal.AxisX, signal.AxisY, signal.AxisZ},
		phase: make(map[signal.Axis]homingPhase, 3),
	}
	for _, a := range d.axes {
		a := a
		bus.MinEndstop(a).Watch(func(at sim.Time, level signal.Level) {
			if level == signal.High {
				d.press(a, at)
			}
		})
	}
	return d
}

// press advances the state machine on an endstop closure.
func (d *HomingDetector) press(a signal.Axis, at sim.Time) {
	if d.homed || d.current >= len(d.axes) || d.axes[d.current] != a {
		// Out-of-order or post-homing press: not part of a homing cycle.
		return
	}
	switch d.phase[a] {
	case phasePending:
		d.phase[a] = phaseFirstTap
	case phaseFirstTap:
		d.phase[a] = phaseDone
		d.current++
		if d.current == len(d.axes) {
			d.homed = true
			d.homedAt = at
			for _, fn := range d.onHomed {
				fn(at)
			}
		}
	}
}

// Homed reports whether a complete homing cycle has been observed.
func (d *HomingDetector) Homed() bool { return d.homed }

// HomedAt reports when homing completed (zero if not yet).
func (d *HomingDetector) HomedAt() sim.Time { return d.homedAt }

// OnHomed registers fn to run when homing completes. If the detector has
// already fired, fn runs immediately.
func (d *HomingDetector) OnHomed(fn func(at sim.Time)) {
	if fn == nil {
		panic("fpga: OnHomed(nil)")
	}
	if d.homed {
		fn(d.homedAt)
		return
	}
	d.onHomed = append(d.onHomed, fn)
}
