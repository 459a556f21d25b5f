package fpga

import (
	"offramps/internal/capture"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// AxisTracker is the paper's Axis Tracking module (§V-B): a set of rising-
// edge detectors and counters on the STEP/DIR pairs, incrementing on
// positive-direction steps and decrementing on negative. After homing the
// counters are absolute positions within the build volume (and cumulative
// filament for E).
//
// Which bus a tracker counts is the board's tap placement (Config.Tap).
// The paper's rig taps the Arduino-side lines — the FPGA's *input* — so
// its capture records what the firmware actually commanded; trojans
// injected downstream (by this same board) do not appear in that capture,
// which is why the paper evaluates detection against upstream (Flaw3D)
// trojans rather than its own (§V-D "both the attacks and defense would
// be co-located in the same FPGA"). A RAMPS-side tap counts the FPGA's
// *output* instead and does see board-injected trojans.
type AxisTracker struct {
	// Per-axis state, indexed by signal.Axis (index 0 unused).
	counts  [signal.AxisE + 1]int64
	steps   [signal.AxisE + 1]*signal.Line
	dirs    [signal.AxisE + 1]*signal.Line
	edges   [signal.AxisE + 1]*EdgeDetector
	resetAt sim.Time
	// firstStep is the time of the first STEP edge after the last Reset;
	// -1 when none seen yet. The exporter synchronizes on it.
	firstStep   sim.Time
	onFirstStep []func(at sim.Time)
}

// NewAxisTracker attaches counters to every axis of bus.
func NewAxisTracker(bus *signal.Bus) *AxisTracker {
	t := &AxisTracker{firstStep: -1}
	for _, a := range signal.Axes {
		a := a
		t.steps[a] = bus.Step(a)
		t.dirs[a] = bus.Dir(a)
		det := newTapDetector(bus.Step(a))
		det.OnRising(func(at sim.Time) { t.step(a, at) })
		t.edges[a] = det
	}
	return t
}

func (t *AxisTracker) step(a signal.Axis, at sim.Time) {
	if t.firstStep < 0 {
		t.firstStep = at
		for _, fn := range t.onFirstStep {
			fn(at)
		}
	}
	if t.dirs[a].Level() == signal.High {
		t.counts[a]--
	} else {
		t.counts[a]++
	}
}

// Reset zeroes all counters (homing detected) and re-arms the first-step
// synchronization.
func (t *AxisTracker) Reset(at sim.Time) {
	t.counts = [signal.AxisE + 1]int64{}
	t.resetAt = at
	t.firstStep = -1
}

// Count reports the current net step count of an axis; 0 for a value
// that names no axis.
func (t *AxisTracker) Count(a signal.Axis) int64 {
	if a < signal.AxisX || a > signal.AxisE {
		return 0
	}
	t.steps[a].Sync()
	return t.counts[a]
}

// Snapshot captures all four counters, current to Now, as a
// transaction payload.
func (t *AxisTracker) Snapshot(index uint32) capture.Transaction {
	for _, l := range t.steps[signal.AxisX:] {
		l.Sync()
	}
	return t.snapshot(index)
}

// snapshot captures the counters as they stand, for an exporter tick
// that has already advanced the lazy step trains to its own place in
// the event order.
func (t *AxisTracker) snapshot(index uint32) capture.Transaction {
	return capture.Transaction{
		Index: index,
		X:     int32(t.counts[signal.AxisX]),
		Y:     int32(t.counts[signal.AxisY]),
		Z:     int32(t.counts[signal.AxisZ]),
		E:     int32(t.counts[signal.AxisE]),
	}
}

// OnFirstStep registers fn to run at the first STEP edge after a Reset.
// If a step has already been seen, fn runs immediately.
func (t *AxisTracker) OnFirstStep(fn func(at sim.Time)) {
	if fn == nil {
		panic("fpga: OnFirstStep(nil)")
	}
	if t.firstStep >= 0 {
		fn(t.firstStep)
		return
	}
	t.onFirstStep = append(t.onFirstStep, fn)
}

// Exporter is the paper's UART control unit (§V-B): once the print head
// has homed and the first STEP edge is found, it emits a 16-byte
// transaction with all four step counts every ExportPeriod. "This
// synchronization significantly increased accuracy over initial tests
// which did not wait for the first step."
//
// Each tick is an advance point for the board's lazy step trains: it
// first applies the deferred edges that precede it in engine order —
// those before the tick instant, and those at it that were scheduled
// before the tick was, one ExportPeriod earlier (Board.Sync) — then
// snapshots.
type Exporter struct {
	board    *Board
	tracker  *AxisTracker
	fp       capture.Fingerprint
	index    uint32
	started  bool
	origin   sim.Time // when the ticker started: ticks at origin + m·period
	stop     func()
	onExport []func(capture.Transaction)
}

// newExporter attaches an exporter to one tap's tracker; a dual-tap
// board runs one exporter per tapped bus.
func newExporter(b *Board, tracker *AxisTracker) *Exporter {
	e := &Exporter{
		board:   b,
		tracker: tracker,
		fp:      capture.Fingerprint{Period: b.cfg.ExportPeriod},
	}
	b.homing.OnHomed(func(sim.Time) {
		tracker.OnFirstStep(func(at sim.Time) { e.start(at) })
	})
	return e
}

func (e *Exporter) start(at sim.Time) {
	if e.started {
		return
	}
	e.started = true
	e.fp.StartedAt = at
	e.origin = e.board.engine.Now()
	e.stop = e.board.engine.Ticker(e.board.cfg.ExportPeriod, func(sim.Time) {
		e.board.Sync()
		tx := e.tracker.snapshot(e.index)
		e.index++
		e.fp.Add(tx)
		for _, fn := range e.onExport {
			fn(tx)
		}
	})
}

// Fingerprint returns the rolling capture fingerprint. Stable (no
// further Adds) once the exporter is stopped.
func (e *Exporter) Fingerprint() *capture.Fingerprint { return &e.fp }

// Windows reports how many transactions have been exported.
func (e *Exporter) Windows() int { return int(e.index) }

// OnExport registers fn to receive every transaction this exporter
// emits, in export order, at the simulated instant the hardware would
// put it on the UART — the streaming feed behind recorded captures and
// live detection. Subscribers run after the fingerprint has folded the
// transaction in, in registration order.
func (e *Exporter) OnExport(fn func(capture.Transaction)) {
	if fn == nil {
		panic("fpga: OnExport(nil)")
	}
	e.onExport = append(e.onExport, fn)
}

// tick returns the export ticker's event stream; a zero Tick when the
// ticker is not running.
func (e *Exporter) tick() signal.Tick {
	if e.stop == nil {
		return signal.Tick{}
	}
	return signal.Tick{Origin: e.origin, Period: e.board.cfg.ExportPeriod}
}

// Stop halts the export ticker (end of session).
func (e *Exporter) Stop() {
	if e.stop != nil {
		e.stop()
		e.stop = nil
	}
}
