package fpga

import (
	"math"
	"sort"

	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Lazy step trains.
//
// A STEP pulse that crosses the board eagerly costs four engine events:
// the Arduino-side rise and fall, and their RAMPS-side copies one
// propagation delay later. On a clean path the only consumers of those
// edges are fixed — the path forward, the tap EdgeDetectors with their
// AxisTrackers, and the RAMPS driver feeding the plant — so the board
// takes the firmware's train descriptors instead (Accept) and applies
// the edges itself, pulse by pulse, at the next advance point: an
// exporter tick, the firmware's next command, a kill, or any reader of
// tracker, line, driver or plant state.
//
// An advance point that fires at now and was scheduled at sched runs
// after exactly the edges the engine would have run before it: those
// before now, and those at now scheduled before sched. Between edges
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

// lazyTrain is one accepted train and how far it has been applied.
type lazyTrain struct {
	signal.Train
	path *PinPath
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

// edge returns the next edge of tr: its kind, time and the instant
// the engine would have scheduled it.
func (tr *lazyTrain) edge() (kind int, at, sched sim.Time) {
	kind = tr.seq[tr.done]
	d, w := tr.path.delay, tr.Width
	switch kind {
	case aRise:
		return kind, tr.rise, tr.prev
	case rRise:
		return kind, tr.rise + d, tr.rise
	case aFall:
		return kind, tr.rise + w, tr.rise
	default:
		return kind, tr.rise + w + d, tr.rise + w
	}
}

// Accept implements signal.TrainSink. The board takes a move's trains
// only when every consumer of their edges is known and replay-safe,
// and takes all of them or none: an E step deposits at the current XYZ,
// so an axis left eager would move under another's deferred steps.
// No trojan may be installed, and for every train:
//
//   - the axis's STEP, DIR and EN paths were never filtered, forced or
//     injected;
//   - its STEP line and the RAMPS copy carry only quiet listeners: the
//     path forward, the tap detectors, and a driver that vouches the
//     plant will not move its endstop (any Watch is never quiet);
//   - no tap waits for its first step (that pulse starts the export
//     ticker, which must see the real instant);
//   - no edge ties an exporter tick or a kill tick in both time and
//     scheduling instant;
//   - pulses cannot overlap, and the train is over before the firmware
//     can touch the axis's lines again — so by the next command's
//     advance point no train of the axis is left.
func (b *Board) Accept(move []signal.Train) bool {
	if len(b.trojans) > 0 {
		return false
	}
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
		*tr = lazyTrain{Train: t, path: p, rise: t.Rises.RiseAt(0), prev: t.Issued}
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
	if t.N <= 0 || !p.clean() || !b.paths[a.DirPin()].clean() || !b.paths[a.EnablePin()].clean() {
		return false
	}
	if !p.src.Quiet(t.N, t.Negative) || !p.dst.Quiet(t.N, t.Negative) {
		return false
	}
	d := p.delay
	if t.MinGap <= t.Width+d || t.Rises.RiseAt(t.N-1)+t.Width+d >= t.Until {
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

// Advance implements signal.TrainSink: it applies, in engine order,
// every deferred edge that precedes an event firing at now that was
// scheduled at sched.
//
// Only the RAMPS-side rises of different trains interact — each moves
// the plant, and an E step deposits at the current XYZ — and a RAMPS
// copy keeps its rise's order. Every other edge touches its own line's
// consumers alone. So pulses are taken whole, in rise order, and each
// pulse's edges run in firing order until one no longer precedes the
// advance point; that train then waits for the next one.
func (b *Board) Advance(now, sched sim.Time) {
	if b.advancing || len(b.lazy) == 0 {
		return
	}
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
	b.advancing = false
}

// applyPulse fires the remaining edges of tr's current pulse that
// precede an event at now scheduled at sched, blocking tr at the first
// that does not, and moves tr to its next pulse or retires it.
func (b *Board) applyPulse(tr *lazyTrain, now, sched sim.Time) {
	for tr.done < len(tr.seq) {
		kind, at, s := tr.edge()
		if at > now || at == now && s >= sched {
			tr.blocked = true
			return
		}
		switch kind {
		case aRise:
			b.replaying = true
			tr.path.src.SetAt(at, signal.High)
			b.replaying = false
		case aFall:
			b.replaying = true
			tr.path.src.SetAt(at, signal.Low)
			b.replaying = false
		case rRise:
			tr.path.dst.SetAt(at, signal.High)
		case rFall:
			tr.path.dst.SetAt(at, signal.Low)
		}
		tr.done++
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
// record for the next Accept.
func (b *Board) retire(tr *lazyTrain) {
	tr.Rises.Done()
	*tr = lazyTrain{}
	b.spareTrains = append(b.spareTrains, tr)
}

// Sync applies every deferred step edge up to Now; it is the
// signal.Deferrer of the board's STEP lines and the advance point of
// every reader. Between engine events that is exact; inside one, edges
// at Now are applied even when the engine would have run them after
// the current event (see signal.Line.Sync).
func (b *Board) Sync() {
	if len(b.lazy) > 0 {
		b.Advance(b.engine.Now(), math.MaxInt64)
	}
}

// Halt implements signal.TrainSink. After the edges that precede the
// kill, no pulse rises again; what is left of a risen pulse — its
// fall, and RAMPS copies still in flight — becomes real engine events,
// scheduled before the kill's own EN change so they keep its order.
// Those events land within one pulse width of the kill, where nothing
// but the RAMPS-side consumers of the same edges observes them.
func (b *Board) Halt(now, sched sim.Time) {
	b.Advance(now, sched)
	live := b.lazy
	// Same-instant RAMPS copies keep their rises' order.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && riseLess(live[j], live[j-1]); j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	for _, tr := range live {
		if tr.done > 0 {
			b.materialize(tr)
		}
		b.retire(tr)
	}
	b.lazy = b.lazy[:0]
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
