package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its target time.
var ErrStopped = errors.New("sim: engine stopped")

// EdgeTarget is a prebound callback for the engine's allocation-free
// scheduling fast path. Hot-path schedulers (signal edges, step trains)
// implement it once and pass a small argument per event instead of
// allocating a fresh closure: the interface value holds a pointer that is
// already live, so ScheduleEdge never heap-allocates.
type EdgeTarget interface {
	// FireEdge runs the scheduled work. arg is the small payload given to
	// ScheduleEdge (a signal level, a pulse phase, ...).
	FireEdge(arg uint64)
}

// event is a scheduled callback, stored by value: the queue tiers hold
// []event slices, so steady-state scheduling performs zero allocations.
// Exactly one of fn and tgt is set. seq breaks ties between events
// scheduled for the same instant so execution order is deterministic
// (FIFO within an instant).
type event struct {
	at  Time
	seq uint64
	fn  func()
	tgt EdgeTarget
	arg uint64
}

// call runs the event's payload.
func (ev *event) call() {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.tgt.FireEdge(ev.arg)
}

// eventLess orders events by (at, seq) — the engine's total execution
// order. seq is unique, so the order is strict.
func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. The wheel is the near tier of the two-tier
// scheduler: one slot covers 2^wheelShift ns, and the whole wheel spans
// slot*count ahead of the drain window. The dominant short fixed delays of
// a print — FPGA propagation (13 ns), STEP pulse widths (2 µs), UART bit
// times (8.7 µs), step periods (≥ 50 µs at the 20 kHz envelope) — all land
// in the wheel; long periodics (PWM windows, control ticks, capture
// exports) overflow into the far-tier heap and are promoted into the wheel
// when their window comes due.
const (
	wheelShift = 13 // 8.192 µs per slot
	wheelSlots = 256
	wheelSlot  = Time(1) << wheelShift
	wheelSpan  = wheelSlot * wheelSlots
	wheelMask  = wheelSlots - 1
)

// slotOf maps an absolute timestamp to its wheel slot. The mapping is
// absolute (no cursor offset), so a slot is valid for exactly one window
// per rotation.
func slotOf(at Time) int { return int(at>>wheelShift) & wheelMask }

// Engine is a deterministic discrete-event simulator. The zero value is
// ready to use.
//
// Internally the pending set is split across two tiers that together
// implement one total (time, sequence) order:
//
//   - a hierarchical timing wheel (near tier) holding events less than
//     wheelSpan ahead, appended to unsorted slots and drained in exact
//     (at, seq) order window by window;
//   - a hand-rolled 4-ary min-heap of value events (far tier) holding
//     everything beyond the wheel horizon, promoted into the wheel as its
//     windows come due.
//
// An occupancy bitmap marks the non-empty wheel slots, so the drain loop
// never visits an empty window: after a window drains it jumps straight
// to the window of the earliest pending event, wherever it is held.
//
// Both tiers store events by value and reuse their backing storage, so
// scheduling allocates only when a slice grows.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	// executed counts events run since creation; useful for progress
	// reporting and for benchmarks that want simulated-events/op.
	executed uint64
	pending  int

	// base is the start (aligned to wheelSlot) of the wheel window
	// currently being drained. Every wheel event lies in
	// [base, base+wheelSpan); the heap holds the rest (and may also hold
	// events that fell inside that range after base advanced).
	base  Time
	slots [wheelSlots][]event
	// occ has bit s set while slots[s] may hold events: set on every
	// wheel append, cleared when the slot's window drains.
	occ [wheelSlots / 64]uint64

	heap []event
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to the state NewEngine would produce while
// retaining the backing storage of its wheel slots and far-tier heap —
// the point of pooling an engine across runs. Every queued event's
// callback reference is released (a reset engine pins nothing from the
// previous run), the clock returns to zero, and the sequence counter
// restarts, so a run on a reset engine is bit-identical to a run on a
// fresh one.
func (e *Engine) Reset() {
	for s := range e.slots {
		slot := e.slots[s]
		for i := range slot {
			slot[i] = event{} // release fn/tgt references
		}
		e.slots[s] = slot[:0]
	}
	for i := range e.heap {
		e.heap[i] = event{}
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.executed = 0
	e.pending = 0
	e.base = 0
	e.occ = [wheelSlots / 64]uint64{}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed reports the number of events processed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (before Now) is a programming error and panics: silently reordering
// events would destroy the determinism every experiment relies on.
func (e *Engine) Schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil func")
	}
	e.enqueue(event{at: at, fn: fn})
}

// After enqueues fn to run d nanoseconds after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// ScheduleEdge enqueues tgt.FireEdge(arg) to run at absolute time at.
// This is the allocation-free fast path: no closure is created, and the
// event is stored by value. Ordering is identical to Schedule — one seq
// counter covers both paths.
func (e *Engine) ScheduleEdge(at Time, tgt EdgeTarget, arg uint64) {
	if tgt == nil {
		panic("sim: ScheduleEdge with nil target")
	}
	e.enqueue(event{at: at, tgt: tgt, arg: arg})
}

// AfterEdge enqueues tgt.FireEdge(arg) to run d nanoseconds after the
// current time, via the allocation-free fast path.
func (e *Engine) AfterEdge(d Time, tgt EdgeTarget, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: AfterEdge with negative delay %v", d))
	}
	e.ScheduleEdge(e.now+d, tgt, arg)
}

// enqueue stamps the event's sequence number and routes it to the wheel
// or the heap.
func (e *Engine) enqueue(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: Schedule at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.pending++
	if ev.at < e.base+wheelSpan {
		e.wheelPush(&ev)
		return
	}
	e.heapPush(ev)
}

// wheelPush appends ev to its slot and marks the slot occupied. ev is
// passed by pointer: copying the event into the call costs as much as
// the append on the scheduling fast path.
func (e *Engine) wheelPush(ev *event) {
	s := slotOf(ev.at)
	e.slots[s] = append(e.slots[s], *ev)
	e.occ[s>>6] |= 1 << (s & 63)
}

// Stop halts the run loop after the currently executing event returns.
// Pending events remain queued; a subsequent Run resumes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty or the next event
// lies beyond until. The clock is left at min(until, time of last event).
// It returns ErrStopped if Stop was called during execution.
func (e *Engine) Run(until Time) error {
	if err := e.run(until); err != nil {
		return err
	}
	if until > e.now {
		e.now = until
	}
	return nil
}

// RunUntilIdle executes every pending event (including events scheduled by
// other events) with no time bound. It returns ErrStopped if Stop was
// called. Use with care: a periodic task keeps the queue permanently non-empty; prefer
// Run with an explicit horizon for full-system simulations.
func (e *Engine) RunUntilIdle() error { return e.run(math.MaxInt64) }

// run is the drain loop shared by Run and RunUntilIdle. It executes every
// event with at ≤ until in strict (at, seq) order and leaves the clock at
// the last executed event (the callers decide whether to advance further).
//
// Each pass promotes the heap events due in the current window, drains
// that window's slot, and then moves base straight to the window of the
// earliest pending event (see nextWindow), returning once that window
// starts beyond until.
func (e *Engine) run(until Time) error {
	e.stopped = false
	for e.pending > 0 {
		// Promote far-tier events due in this window.
		for len(e.heap) > 0 && e.heap[0].at < e.base+wheelSlot {
			ev := e.heapPop()
			e.wheelPush(&ev)
		}
		// Drain the current window in (at, seq) order. The slot is
		// unsorted and may grow while events execute (short-delay
		// reschedules land back in the same window), so each step scans
		// for the minimum remaining event.
		cur := slotOf(e.base)
		slot := &e.slots[cur]
		for len(*slot) > 0 {
			s := *slot
			min := 0
			for i := 1; i < len(s); i++ {
				if eventLess(s[i], s[min]) {
					min = i
				}
			}
			ev := s[min]
			if ev.at > until {
				return nil
			}
			last := len(s) - 1
			s[min] = s[last]
			s[last] = event{} // release fn/tgt references
			*slot = s[:last]
			e.pending--
			e.now = ev.at
			e.executed++
			ev.call()
			if e.stopped {
				return ErrStopped
			}
			slot = &e.slots[cur]
		}
		e.occ[cur>>6] &^= 1 << (cur & 63)
		if e.pending == 0 {
			break
		}
		next := e.nextWindow()
		if next > until {
			return nil
		}
		e.base = next
	}
	return nil
}

// nextWindow returns the start of the window holding the earliest pending
// event, once the current window has drained. It is the earlier of the
// heap top's window and the window of the nearest occupied slot after the
// current one in cyclic order. The slot distance alone names that window
// because every wheel event lies in [base, base+wheelSpan): a slot d
// steps ahead of base's can only hold events of window base+d*wheelSlot.
func (e *Engine) nextWindow() Time {
	next := Time(math.MaxInt64)
	if len(e.heap) > 0 {
		next = e.heap[0].at &^ (wheelSlot - 1)
	}
	cur := slotOf(e.base)
	from := (cur + 1) & wheelMask
	w := from >> 6
	word := e.occ[w] &^ (1<<(from&63) - 1)
	// Scan the words in cyclic order, ending back at the first one for
	// the slots below from.
	for i := 0; i <= len(e.occ); i++ {
		if word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			d := (s - cur) & wheelMask
			if at := e.base + Time(d)*wheelSlot; at < next {
				next = at
			}
			break
		}
		w = (w + 1) % len(e.occ)
		word = e.occ[w]
	}
	return next
}

// heapPush inserts ev into the far-tier 4-ary min-heap.
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes and returns the minimum event of the far tier.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release fn/tgt references
	h = h[:last]
	i := 0
	for {
		first := i*4 + 1
		if first >= len(h) {
			break
		}
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		min := first
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	e.heap = h
	return top
}

// Ticker invokes fn every period, starting at Now+period, until the
// returned cancel function is called. fn receives the tick time. Periodic
// work (PID loops, UART export windows, thermal integration) is built on
// Ticker.
func (e *Engine) Ticker(period Time, fn func(Time)) (cancel func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Ticker with non-positive period %v", period))
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn(e.now)
		if stopped { // fn may cancel its own ticker
			return
		}
		e.After(period, tick)
	}
	e.After(period, tick)
	return func() { stopped = true }
}
