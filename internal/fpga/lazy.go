package fpga

import (
	"sort"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Lazy step trains.
//
// A STEP pulse that crosses the board eagerly costs four engine events:
// the Arduino-side rise and fall, and their RAMPS-side copies one
// propagation delay later. On a clean path the consumers of those
// edges are fixed — the path forward, the tap EdgeDetectors with their
// AxisTrackers, and the RAMPS driver feeding the plant — so the board
// takes the firmware's train descriptors instead (Accept), resolves
// each train's consumers once, and applies the edges itself at the next
// advance point: an exporter tick, the firmware's next command, a kill,
// a trojan's change to a path, or any reader of tracker, line, driver,
// endstop or plant state.
//
// The replay kernel applies an edge without Line.SetAt's fan-out: it
// stamps the line, counts the edge on the tap detector and tracker that
// sit on it, and hands it to the line's other sinks. The path forward
// is left out: the kernel applies the RAMPS copy itself.
//
// A replayed RAMPS-side rise may move the carriage onto or off its MIN
// switch. The plant drives the RAMPS-side MIN line with the step's own
// time, and the board's endstop forward holds the Arduino-side copy,
// one propagation delay later, until the advance point it precedes.
//
// An advance point that fires at now and was scheduled at sched (the
// engine's Now and Scheduled) runs after exactly the edges the engine
// would have run before it: those before now, and those at now
// scheduled before sched. Between edges
// the engine's order is (time, scheduling order); see riseBefore and
// DESIGN.md §6 for how that order is recovered from the trains' closed
// form.

// Edges of one pulse.
const (
	aRise = iota // Arduino-side rise at r
	rRise        // its RAMPS-side copy at r+delay
	aFall        // Arduino-side fall at r+width
	rFall        // its RAMPS-side copy at r+width+delay
)

// lazyTrain is one accepted train, the consumers of its two lines, and
// how far it has been applied.
type lazyTrain struct {
	signal.Train
	path *PinPath
	// src and dst reach the consumers of the Arduino STEP line and of
	// its RAMPS copy.
	src, dst lineKernel
	// seq lists a pulse's edges in firing order; done counts the edges
	// of pulse k applied so far.
	seq  [4]int
	k    int
	done int
	// blocked marks a train whose next edge does not precede the
	// current advance point.
	blocked bool
	// rise is pulse k's rise; prev is the instant it was scheduled:
	// pulse k-1's rise, or the move's planning instant for pulse 0.
	rise, prev sim.Time
}

// edge returns edge kind of tr's current pulse: the line it lands on,
// its level, its time, and the instant the engine would have scheduled
// it.
func (tr *lazyTrain) edge(kind int) (lk *lineKernel, level signal.Level, at, sched sim.Time) {
	d, w := tr.path.delay, tr.Width
	switch kind {
	case aRise:
		return &tr.src, signal.High, tr.rise, tr.prev
	case rRise:
		return &tr.dst, signal.High, tr.rise + d, tr.rise
	case aFall:
		return &tr.src, signal.Low, tr.rise + w, tr.rise
	default:
		return &tr.dst, signal.Low, tr.rise + w + d, tr.rise + w
	}
}

// lineKernel is one STEP line's consumers, resolved when its train is
// accepted: the tap tracker whose EdgeDetector sits on the line, if
// any, and every other sink but the path forward, in registration
// order. A tap detector's only hook is its tracker's step
// (NewAxisTracker), so the kernel counts the edge on both itself.
type lineKernel struct {
	line    *signal.Line
	tracker *AxisTracker
	sinks   []signal.Sink
}

// resolve sorts the sinks of line, axis a's STEP line on either bus,
// into lk.
func (lk *lineKernel) resolve(b *Board, a signal.Axis, line *signal.Line) {
	*lk = lineKernel{line: line, sinks: lk.sinks[:0]}
	fwd := signal.Sink((*forward)(b.paths[a.StepPin()]))
	for s := range line.Sinks() {
		if s == fwd {
			continue
		}
		if tk := b.tapTracker(a, s); tk != nil {
			lk.tracker = tk
			continue
		}
		lk.sinks = append(lk.sinks, s)
	}
}

// tapTracker returns the tap tracker whose axis-a detector is s, or nil.
func (b *Board) tapTracker(a signal.Axis, s signal.Sink) *AxisTracker {
	for _, tp := range b.taps {
		if s == signal.Sink((*detectorSink)(tp.tracker.edges[a])) {
			return tp.tracker
		}
	}
	return nil
}

// edge applies one edge of axis a to the line: it stamps the line and,
// if the level changed, counts the edge on the tap detector and tracker
// and hands it to the other sinks — what SetAt's fan-out would do.
func (lk *lineKernel) edge(a signal.Axis, at sim.Time, level signal.Level) {
	if !lk.line.Stamp(at, level) {
		return
	}
	if tk := lk.tracker; tk != nil {
		if level == signal.High {
			tk.edges[a].rising++
			tk.step(a, at)
		} else {
			tk.edges[a].falling++
		}
	}
	for _, s := range lk.sinks {
		s.Edge(at, level)
	}
}

// Accept implements signal.TrainSink. The board takes a move's trains
// only when every consumer of their edges is known and replay-safe,
// and takes all of them or none: an E step deposits at the current XYZ,
// so an axis left eager would move under another's deferred steps.
// For every train:
//
//   - the axis's STEP path is replayable now: not forced or filtered,
//     with no injected pulse in flight. Its DIR and EN paths may be in
//     any state, because every change to a path is an advance point
//     (change);
//   - its STEP line and the RAMPS copy carry only quiet listeners: the
//     path forward, the tap detectors, any quiet sink, and a driver
//     whose plant's MIN line for the axis carries only quiet listeners
//     in turn — the endstop forward, and a homing detector that has
//     seen homing (any Watch is never quiet);
//   - no tap waits for its first step (that pulse starts the export
//     ticker, which must see the real instant);
//   - no edge ties an exporter tick or a kill tick in both time and
//     scheduling instant;
//   - pulses cannot overlap, and the train is over, and any endstop
//     copy it causes has landed, before the firmware can touch the
//     axis's lines again — so by the next command's advance point
//     nothing of the move is left.
func (b *Board) Accept(move []signal.Train) bool {
	for _, t := range move {
		if !b.replaySafe(t) {
			return false
		}
	}
	for _, t := range move {
		var tr *lazyTrain
		if n := len(b.spareTrains); n > 0 {
			tr = b.spareTrains[n-1]
			b.spareTrains = b.spareTrains[:n-1]
		} else {
			tr = new(lazyTrain)
		}
		p := b.paths[t.Axis.StepPin()]
		*tr = lazyTrain{Train: t, path: p, src: tr.src, dst: tr.dst, rise: t.Rises.RiseAt(0), prev: t.Issued}
		tr.src.resolve(b, t.Axis, p.src)
		tr.dst.resolve(b, t.Axis, p.dst)
		// A forwarded copy is scheduled inside the rise, before the
		// fall, so at equal offsets the copy fires first.
		tr.seq = [4]int{aRise, rRise, aFall, rFall}
		if p.delay > t.Width {
			tr.seq = [4]int{aRise, aFall, rRise, rFall}
		}
		b.lazy = append(b.lazy, tr)
	}
	return true
}

// replaySafe reports whether the board could apply t's edges itself
// (see Accept).
func (b *Board) replaySafe(t signal.Train) bool {
	a := t.Axis
	p := b.paths[a.StepPin()]
	if t.N <= 0 || !p.replayable() {
		return false
	}
	if !p.src.Quiet() || !p.dst.Quiet() {
		return false
	}
	d := p.delay
	// The last pulse's fall lands width+delay after its rise on the
	// RAMPS side, and an endstop copy 2·delay after it.
	if t.MinGap <= t.Width+d || t.Rises.RiseAt(t.N-1)+max(t.Width, d)+d >= t.Until {
		return false
	}
	for _, tp := range b.taps {
		if tp.tracker.firstStep < 0 && len(tp.tracker.onFirstStep) > 0 {
			return false
		}
		if ties(t, tp.exporter.tick(), d) {
			return false
		}
	}
	return !ties(t, t.Kill, d)
}

// ties reports whether an edge of t — on the Arduino side, or delay
// later on the RAMPS side — lands exactly on an event of tk and was
// scheduled at the same instant as that event. Such an edge's order
// against the event depends on which of two same-instant events ran
// first, so the train must run eagerly.
func ties(t signal.Train, tk signal.Tick, delay sim.Time) bool {
	p := tk.Period
	if p <= 0 {
		return false
	}
	// A fall is scheduled one width before it fires and a RAMPS copy
	// one delay before; either ties every event it lands on.
	if t.Width == p || delay == p {
		return true
	}
	first, last := t.Rises.RiseAt(0), t.Rises.RiseAt(t.N-1)
	m := sim.Time(1)
	if first > tk.Origin+p {
		m = (first - tk.Origin + p - 1) / p
	}
	for at := tk.Origin + m*p; at <= last; at += p {
		if at-p < first {
			// Only pulse 0 was scheduled before the first rise.
			if at == first && t.Issued == at-p {
				return true
			}
			continue
		}
		k := sort.Search(t.N, func(k int) bool { return t.Rises.RiseAt(k) >= at })
		if k == t.N || t.Rises.RiseAt(k) != at {
			continue
		}
		sched := t.Issued
		if k > 0 {
			sched = t.Rises.RiseAt(k - 1)
		}
		if sched == at-p {
			return true
		}
	}
	return false
}

// Sync implements signal.TrainSink and signal.Deferrer: it is the
// advance point of the firmware's commands, the exporter ticks, and
// every reader of tracker, line, driver, endstop or plant state. It
// applies, in engine order, every deferred edge that precedes the
// running event — one firing at Now that was scheduled at the engine's
// Scheduled instant — or, between events, every edge up to Now. An edge
// tied with the running event in both is applied after it, though the
// engine may have run it first: only their seq could tell.
//
// Only the RAMPS-side rises of different trains interact — each moves
// the plant, and an E step deposits at the current XYZ — and a RAMPS
// copy keeps its rise's order. Every other edge touches its own line's
// consumers alone. So pulses are taken whole, in rise order, and each
// pulse's edges run in firing order until one no longer precedes the
// advance point; that train then waits for the next one. The held
// endstop copies touch only their Arduino-side lines, so they land
// last.
func (b *Board) Sync() {
	if b.advancing || len(b.lazy) == 0 && len(b.held) == 0 {
		return
	}
	now, sched := b.engine.Now(), b.engine.Scheduled()
	b.advancing = true
	for _, tr := range b.lazy {
		tr.blocked = false
	}
	for {
		var best *lazyTrain
		for _, tr := range b.lazy {
			if !tr.blocked && (best == nil || riseLess(tr, best)) {
				best = tr
			}
		}
		if best == nil {
			break
		}
		b.applyPulse(best, now, sched)
	}
	b.landHeld(now, sched)
	b.advancing = false
}

// applyPulse fires the remaining edges of tr's current pulse that
// precede an event at now scheduled at sched, blocking tr at the first
// that does not, and moves tr to its next pulse or retires it. A pulse
// whose last edge — the RAMPS fall — precedes the event is applied
// whole, in firing order, without a per-edge test; only the pulse that
// straddles the advance point walks seq.
func (b *Board) applyPulse(tr *lazyTrain, now, sched sim.Time) {
	a, r, d, w := tr.Axis, tr.rise, tr.path.delay, tr.Width
	if tr.done == 0 && (r+w+d < now || r+w+d == now && r+w < sched) {
		tr.src.edge(a, r, signal.High)
		if tr.seq[1] == rRise {
			tr.dst.edge(a, r+d, signal.High)
			tr.src.edge(a, r+w, signal.Low)
		} else {
			tr.src.edge(a, r+w, signal.Low)
			tr.dst.edge(a, r+d, signal.High)
		}
		tr.dst.edge(a, r+w+d, signal.Low)
	} else {
		for ; tr.done < len(tr.seq); tr.done++ {
			lk, level, at, s := tr.edge(tr.seq[tr.done])
			if at > now || at == now && s >= sched {
				tr.blocked = true
				return
			}
			lk.edge(a, at, level)
		}
	}
	tr.done = 0
	tr.k++
	if tr.k < tr.N {
		tr.prev, tr.rise = tr.rise, tr.Rises.RiseAt(tr.k)
		return
	}
	for i, live := range b.lazy {
		if live == tr {
			b.lazy = append(b.lazy[:i], b.lazy[i+1:]...)
			break
		}
	}
	b.retire(tr)
}

// retire hands a finished train back to its owner and keeps the
// record, with its sink lists' storage, for the next Accept.
func (b *Board) retire(tr *lazyTrain) {
	tr.Rises.Done()
	*tr = lazyTrain{src: tr.src, dst: tr.dst}
	b.spareTrains = append(b.spareTrains, tr)
}

// Halt implements signal.TrainSink. After the edges that precede the
// kill, no pulse rises again: what is left of a risen pulse becomes
// real events (cut), scheduled before the kill's own EN change so they
// keep its order, every live train is dropped, and a train handed back
// to the engine (resume) emits only the falls it has booked. Those
// events land within one pulse width of the kill, where nothing but the
// consumers of the same edges observes them.
func (b *Board) Halt() {
	b.cut()
	for _, tr := range b.lazy {
		b.retire(tr)
	}
	b.lazy = b.lazy[:0]
	b.halted = true
}

// change is the advance point of a trojan's change to path p, called
// before the change schedules its own edge one propagation delay out.
// After cut, every edge the engine would have run before that edge is
// applied or queued ahead of it, and every edge still deferred lands
// after it and sees it. A clamp or a filter on a STEP path (stepping)
// is beyond the replay kernel: when a live train runs on p, every live
// train goes back to the engine (resume), since a move is never split.
func (b *Board) change(p *PinPath, stepping bool) {
	if len(b.lazy) == 0 && len(b.held) == 0 {
		return
	}
	b.cut()
	if !stepping {
		return
	}
	for _, tr := range b.lazy {
		if tr.path == p {
			b.resume()
			return
		}
	}
}

// cut applies the deferred edges that precede the running event, then
// schedules every held endstop copy and the unapplied edges of every
// risen pulse as engine events, and moves those trains to their next
// pulse: each live train is left at a pulse that has not risen yet.
// Same-instant RAMPS copies keep their rises' order.
func (b *Board) cut() {
	b.Sync()
	for _, h := range b.held {
		b.engine.ScheduleEdge(h.at, h.line, uint64(h.level))
	}
	b.held = b.held[:0]
	live := b.lazy
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && riseLess(live[j], live[j-1]); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	n := 0
	for _, tr := range live {
		if tr.done > 0 {
			b.materialize(tr)
			tr.done = 0
			if tr.k++; tr.k == tr.N {
				b.retire(tr)
				continue
			}
			tr.prev, tr.rise = tr.rise, tr.Rises.RiseAt(tr.k)
		}
		live[n] = tr
		n++
	}
	b.lazy = live[:n]
}

// resume hands every live train back to the engine after a cut: each
// schedules its next rise, in rise order, and from then on emits its
// pulses as the firmware's eager train does (FireEdge).
func (b *Board) resume() {
	for _, tr := range b.lazy {
		b.engine.ScheduleEdge(tr.rise, tr, riseEdge)
	}
	b.lazy = b.lazy[:0]
}

// lazyTrain.FireEdge arguments.
const (
	riseEdge uint64 = iota
	fallEdge
)

// FireEdge implements sim.EdgeTarget for a train handed back to the
// engine: a rise drives the Arduino STEP line High through every
// listener, books its fall and the next rise; the last fall retires the
// train. After a kill no pulse rises.
func (tr *lazyTrain) FireEdge(arg uint64) {
	b := tr.path.board
	if arg == fallEdge {
		tr.path.src.Set(signal.Low)
		if tr.k == tr.N {
			b.retire(tr)
		}
		return
	}
	if b.halted {
		return
	}
	tr.path.src.Set(signal.High)
	b.engine.ScheduleEdge(b.engine.Now()+tr.Width, tr, fallEdge)
	if tr.k++; tr.k < tr.N {
		b.engine.ScheduleEdge(tr.Rises.RiseAt(tr.k), tr, riseEdge)
	}
}

// materialize schedules the unapplied edges of tr's current pulse as
// engine events. A source fall goes through the path forward, which
// schedules its own RAMPS copy.
func (b *Board) materialize(tr *lazyTrain) {
	src, dst, d, w := tr.path.src, tr.path.dst, tr.path.delay, tr.Width
	fell := false
	for _, kind := range tr.seq[:tr.done] {
		fell = fell || kind == aFall
	}
	for _, kind := range tr.seq[tr.done:] {
		switch kind {
		case aFall:
			b.engine.ScheduleEdge(tr.rise+w, src, uint64(signal.Low))
		case rRise:
			b.engine.ScheduleEdge(tr.rise+d, dst, uint64(signal.High))
		case rFall:
			if fell {
				b.engine.ScheduleEdge(tr.rise+w+d, dst, uint64(signal.Low))
			}
		}
	}
}

// riseLess orders the current pulses of two trains by their rises.
func riseLess(a, b *lazyTrain) bool {
	if a.rise != b.rise {
		return a.rise < b.rise
	}
	return riseBefore(a, a.k, b, b.k)
}

// riseBefore orders pulse i of a before pulse j of b, two rises at the
// same instant. The engine ran whichever was scheduled first: compare
// their scheduling instants, and on a tie move one pulse back to the
// two rises that scheduled them, down to the move's planning instant,
// where executeMove scheduled pulse 0 of each axis in axis order. Two
// trains of one move with equal pulse counts tie at every pulse, so
// axis order decides at once.
func riseBefore(a *lazyTrain, i int, b *lazyTrain, j int) bool {
	for {
		if a.Issued == b.Issued && a.N == b.N && i == j {
			return a.Axis < b.Axis
		}
		si, sj := a.Issued, b.Issued
		if i > 0 {
			si = a.Rises.RiseAt(i - 1)
		}
		if j > 0 {
			sj = b.Rises.RiseAt(j - 1)
		}
		if si != sj {
			return si < sj
		}
		if i == 0 || j == 0 {
			return a.Axis < b.Axis
		}
		i--
		j--
	}
}

// endstopForward carries one MIN endstop line from the RAMPS side to
// the Arduino side, one propagation delay late, as Line.Connect would.
// It is a signal.Sink, quiet while its Arduino-side line is: the edges
// it forwards reach nothing else. An edge caused by a replayed step is
// held with its true landing time instead of scheduled from Now.
type endstopForward struct {
	board *Board
	dst   *signal.Line
}

// heldEdge is an endstop copy a replayed step caused that has not
// landed yet: line goes to level at at, an event the engine would have
// scheduled one propagation delay earlier.
type heldEdge struct {
	line  *signal.Line
	at    sim.Time
	level signal.Level
}

// Edge forwards a RAMPS-side endstop edge.
func (f *endstopForward) Edge(at sim.Time, level signal.Level) {
	b := f.board
	d := b.cfg.PropagationDelay
	switch {
	case d == 0:
		f.dst.SetAt(at, level)
	case b.advancing:
		b.held = append(b.held, heldEdge{line: f.dst, at: at + d, level: level})
	default:
		f.dst.SetAfter(d, level)
	}
}

// Quiet implements signal.Quieter.
func (f *endstopForward) Quiet() bool { return f.dst.Quiet() }

// landHeld applies the held endstop copies that precede an event at now
// scheduled at sched. They were held in landing order.
func (b *Board) landHeld(now, sched sim.Time) {
	d := b.cfg.PropagationDelay
	n := 0
	for _, h := range b.held {
		if h.at > now || h.at == now && h.at-d >= sched {
			break
		}
		h.line.SetAt(h.at, h.level)
		n++
	}
	b.held = b.held[:copy(b.held, b.held[n:])]
}
