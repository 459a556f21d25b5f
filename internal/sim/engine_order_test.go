package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestEngineSameInstantFIFOAcrossTiers proves FIFO-within-instant holds
// when events for the same instant arrive through different tiers: some
// scheduled far ahead (heap, promoted into the wheel when due) and some
// scheduled late (directly into the wheel). Execution must follow
// scheduling order regardless of which tier held each event.
func TestEngineSameInstantFIFOAcrossTiers(t *testing.T) {
	e := NewEngine()
	const T = wheelSpan + 4*wheelSlot + 17
	var got []int
	// Far tier: beyond the wheel horizon at schedule time.
	e.Schedule(T, func() { got = append(got, 0) })
	e.Schedule(T, func() { got = append(got, 1) })
	// An event just before T schedules more work for the exact same
	// instant; by then T is inside the wheel window, so these take the
	// near tier.
	e.Schedule(T-1, func() {
		e.Schedule(T, func() { got = append(got, 2) })
		e.Schedule(T, func() { got = append(got, 3) })
	})
	if err := e.Run(T); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("executed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-tier same-instant order = %v, want %v", got, want)
		}
	}
}

// TestEngineSameInstantFIFOEdgePath proves the closure path and the
// allocation-free edge path share one sequence counter: interleaved
// Schedule and ScheduleEdge calls for one instant run in call order.
type orderRecorder struct{ got *[]int }

func (r *orderRecorder) FireEdge(arg uint64) { *r.got = append(*r.got, int(arg)) }

func TestEngineSameInstantFIFOEdgePath(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := &orderRecorder{got: &got}
	e.Schedule(100, func() { got = append(got, 0) })
	e.ScheduleEdge(100, rec, 1)
	e.Schedule(100, func() { got = append(got, 2) })
	e.ScheduleEdge(100, rec, 3)
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("mixed-path same-instant order = %v, want ascending", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("executed %d events, want 4", len(got))
	}
}

// TestEngineStopResumeMidWheel stops the engine between events that share
// a wheel window (and partly share an instant) and checks the remainder
// stays queued and resumes in exactly the original order.
func TestEngineStopResumeMidWheel(t *testing.T) {
	e := NewEngine()
	var got []int
	add := func(id int) func() { return func() { got = append(got, id) } }
	const T = 3 * wheelSlot / 2 // mid-wheel, not slot-aligned
	e.Schedule(T, add(0))
	e.Schedule(T, func() { got = append(got, 1); e.Stop() })
	e.Schedule(T, add(2))
	e.Schedule(T+1, add(3))
	e.Schedule(T+wheelSlot, add(4)) // next window of the same wheel

	if err := e.Run(T + 2*wheelSlot); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if len(got) != 2 {
		t.Fatalf("executed %v before stop, want [0 1]", got)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending() = %d after stop, want 3", e.Pending())
	}
	if err := e.Run(T + 2*wheelSlot); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("resumed order = %v, want %v", got, want)
		}
	}
}

// refEngine is the pre-rework scheduler semantics distilled to their
// definition: execute pending events in strictly increasing (at, seq)
// order, where seq is assignment order. The differential test replays an
// identical randomized workload through refEngine and Engine and demands
// identical execution order, proving the two-tier scheduler preserves the
// old ordering exactly.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refEngine) schedule(at Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
}

func (r *refEngine) run(spawn func(id int, now Time, schedule func(d Time, id int))) []int {
	var order []int
	for len(r.pending) > 0 {
		min := 0
		for i := 1; i < len(r.pending); i++ {
			p, q := r.pending[i], r.pending[min]
			if p.at < q.at || (p.at == q.at && p.seq < q.seq) {
				min = i
			}
		}
		ev := r.pending[min]
		r.pending[min] = r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.now = ev.at
		order = append(order, ev.id)
		spawn(ev.id, r.now, func(d Time, id int) { r.schedule(r.now+d, id) })
	}
	return order
}

// workload is a deterministic random event tree: node i, when executed,
// schedules its children at fixed relative delays. Delays mix the wheel's
// sweet spot (sub-slot, multi-slot) with far-horizon heap delays and
// plenty of zero/equal delays to force same-instant ties.
type workloadNode struct {
	children []struct {
		delay Time
		id    int
	}
}

func buildWorkload(rng *rand.Rand, n int) []workloadNode {
	delays := []Time{
		0, 1, 13, 100, // same-instant and sub-slot
		2000, 2000, 8192, 8193, // slot-boundary neighbours
		50_000, 50_000, 150_000, // multi-slot
		wheelSpan - 1, wheelSpan, wheelSpan + 1, // horizon boundary
		10_000_000, 100_000_000, // deep heap
	}
	nodes := make([]workloadNode, n)
	next := 1
	for i := 0; i < n && next < n; i++ {
		kids := rng.Intn(4)
		for k := 0; k < kids && next < n; k++ {
			d := delays[rng.Intn(len(delays))]
			nodes[i].children = append(nodes[i].children, struct {
				delay Time
				id    int
			}{d, next})
			next++
		}
	}
	return nodes
}

func TestEngineDifferentialOrderingVsReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		nodes := buildWorkload(rng, 600)

		// Reference run.
		ref := &refEngine{}
		ref.schedule(0, 0)
		refOrder := ref.run(func(id int, _ Time, schedule func(Time, int)) {
			for _, c := range nodes[id].children {
				schedule(c.delay, c.id)
			}
		})

		// Engine run, alternating closure and edge paths to cover both.
		e := NewEngine()
		var order []int
		var exec func(id int)
		sink := &workloadSink{}
		sink.fire = func(id int) { exec(id) }
		exec = func(id int) {
			order = append(order, id)
			for _, c := range nodes[id].children {
				c := c
				if c.id%2 == 0 {
					e.After(c.delay, func() { exec(c.id) })
				} else {
					e.AfterEdge(c.delay, sink, uint64(c.id))
				}
			}
		}
		e.Schedule(0, func() { exec(0) })
		if err := e.RunUntilIdle(); err != nil {
			t.Fatalf("seed %d: RunUntilIdle: %v", seed, err)
		}

		if len(order) != len(refOrder) {
			t.Fatalf("seed %d: executed %d events, reference executed %d", seed, len(order), len(refOrder))
		}
		for i := range refOrder {
			if order[i] != refOrder[i] {
				t.Fatalf("seed %d: execution order diverges at %d: engine %d, reference %d",
					seed, i, order[i], refOrder[i])
			}
		}
	}
}

type workloadSink struct{ fire func(id int) }

func (s *workloadSink) FireEdge(arg uint64) { s.fire(int(arg)) }

// TestEngineEdgePathValidation mirrors the closure path's contract checks.
func TestEngineEdgePathValidation(t *testing.T) {
	e := NewEngine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleEdge(nil target) did not panic")
			}
		}()
		e.ScheduleEdge(0, nil, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AfterEdge with negative delay did not panic")
			}
		}()
		e.AfterEdge(-1, &workloadSink{fire: func(int) {}}, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleEdge in the past did not panic")
			}
		}()
		e.Schedule(100, func() {})
		if err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		e.ScheduleEdge(50, &workloadSink{fire: func(int) {}}, 0)
	}()
}

// BenchmarkEngineSchedule measures the raw schedule/execute cycle on a
// near-horizon workload — the wheel's fast path.
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j)*50, func() {})
		}
		if err := e.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScheduleEdge measures the allocation-free fast path.
func BenchmarkEngineScheduleEdge(b *testing.B) {
	sink := &workloadSink{fire: func(int) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.ScheduleEdge(Time(j)*50, sink, 0)
		}
		if err := e.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTicker measures periodic work (the control-loop shape).
func BenchmarkEngineTicker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		cancel := e.Ticker(100*Microsecond, func(Time) {})
		if err := e.Run(100 * Millisecond); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}

// BenchmarkEngineMixedHorizon measures the realistic print shape: dense
// near-horizon pulse edges riding on sparse far-horizon periodics, which
// exercises wheel/heap promotion.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	sink := &workloadSink{fire: func(int) {}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		// Far tier: periodic exports every 100 ms over 1 s.
		for j := Time(1); j <= 10; j++ {
			e.Schedule(j*100*Millisecond, func() {})
		}
		// Near tier: a self-rescheduling 20 kHz pulse train with 2 µs
		// falling edges, like a STEP line at the paper's envelope.
		var rise func()
		n := 0
		rise = func() {
			n++
			e.AfterEdge(2*Microsecond, sink, 0)
			if n < 20_000 {
				e.After(50*Microsecond, rise)
			}
		}
		e.Schedule(0, rise)
		if err := e.Run(1100 * Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// buildSparseWorkload is buildWorkload at print density: one event per
// step period or so, with gaps that leave most wheel windows empty. Ids
// below roots have no parent: the test schedules id 0 up front and
// injects the others from outside the run, between Run chunks.
func buildSparseWorkload(rng *rand.Rand, n, roots int) []workloadNode {
	delays := []Time{
		0, 2 * Microsecond, // same instant, STEP pulse width
		50 * Microsecond, 100 * Microsecond, 250 * Microsecond, 400 * Microsecond, // step periods
		3*wheelSlot + 5, 40 * wheelSlot, 200*wheelSlot + 3, // multi-window gaps
		wheelSpan - wheelSlot/2,                 // lands up to a slot behind the current one
		wheelSpan - 1, wheelSpan, wheelSpan + 1, // horizon boundary
		2*wheelSpan + wheelSlot/2, 5*wheelSpan - 1, // wrap the wheel more than once
	}
	nodes := make([]workloadNode, n)
	next := roots
	for i := 0; i < n && next < n; i++ {
		kids := 1 + rng.Intn(2) // supercritical: the trees use all n ids
		for k := 0; k < kids && next < n; k++ {
			d := delays[rng.Intn(len(delays))]
			nodes[i].children = append(nodes[i].children, struct {
				delay Time
				id    int
			}{d, next})
			next++
		}
	}
	return nodes
}

// runUntil executes the reference's pending events with at ≤ until in
// (at, seq) order and then advances its clock to until, the contract of
// Engine.Run. It returns the executed events.
func (r *refEngine) runUntil(until Time, spawn func(id int, schedule func(d Time, id int))) []refEvent {
	var done []refEvent
	for {
		min := -1
		for i, p := range r.pending {
			if p.at > until {
				continue
			}
			if min < 0 || p.at < r.pending[min].at || (p.at == r.pending[min].at && p.seq < r.pending[min].seq) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		ev := r.pending[min]
		r.pending[min] = r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.now = ev.at
		done = append(done, ev)
		spawn(ev.id, func(d Time, id int) { r.schedule(r.now+d, id) })
	}
	if until > r.now {
		r.now = until
	}
	return done
}

// sparseRun drives one sparse workload through the engine in random Run
// chunks, injecting the remaining roots between chunks, and checks every
// chunk against the reference: same events at the same instants in the
// same order, the clock at the chunk's horizon, and the same number of
// events left pending.
func sparseRun(t *testing.T, e *Engine, seed int64) (order []int, times []Time) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, roots = 800, 6
	nodes := buildSparseWorkload(rng, n, roots)
	chunks := []Time{1, wheelSlot / 3, wheelSlot, 7*wheelSlot + 1, 400 * Microsecond, wheelSpan, 3 * wheelSpan}

	ref := &refEngine{}
	sink := &workloadSink{}
	var exec func(id int)
	sink.fire = func(id int) { exec(id) }
	exec = func(id int) {
		order = append(order, id)
		times = append(times, e.Now())
		for _, c := range nodes[id].children {
			c := c
			if c.id%2 == 0 {
				e.After(c.delay, func() { exec(c.id) })
			} else {
				e.AfterEdge(c.delay, sink, uint64(c.id))
			}
		}
	}
	spawn := func(id int, schedule func(Time, int)) {
		for _, c := range nodes[id].children {
			schedule(c.delay, c.id)
		}
	}

	ref.schedule(0, 0)
	e.Schedule(0, func() { exec(0) })
	injected := 1
	var until Time
	for chunk := 0; len(ref.pending) > 0 || injected < roots; chunk++ {
		until += chunks[rng.Intn(len(chunks))]
		want := ref.runUntil(until, spawn)
		from := len(order)
		if err := e.Run(until); err != nil {
			t.Fatalf("seed %d chunk %d: Run(%v): %v", seed, chunk, until, err)
		}
		if e.Now() != until {
			t.Fatalf("seed %d chunk %d: Now() = %v after Run(%v)", seed, chunk, e.Now(), until)
		}
		got := order[from:]
		if len(got) != len(want) {
			t.Fatalf("seed %d chunk %d: executed %d events up to %v, reference %d",
				seed, chunk, len(got), until, len(want))
		}
		for i, w := range want {
			if got[i] != w.id || times[from+i] != w.at {
				t.Fatalf("seed %d chunk %d: event %d is id %d at %v, reference id %d at %v",
					seed, chunk, i, got[i], times[from+i], w.id, w.at)
			}
		}
		if e.Pending() != len(ref.pending) {
			t.Fatalf("seed %d chunk %d: Pending() = %d, reference %d", seed, chunk, e.Pending(), len(ref.pending))
		}
		for s := range e.slots {
			if bit := e.occ[s>>6]>>(s&63)&1 == 1; bit != (len(e.slots[s]) > 0) {
				t.Fatalf("seed %d chunk %d: slot %d holds %d events but its occupancy bit is %v",
					seed, chunk, s, len(e.slots[s]), bit)
			}
		}
		if injected < roots && rng.Intn(3) == 0 {
			// Scheduled from outside any event, relative to a clock the
			// horizon moved: the wheel window may lag far behind it.
			id := injected
			d := Time(rng.Int63n(int64(4 * wheelSpan)))
			ref.schedule(ref.now+d, id)
			e.After(d, func() { exec(id) })
			injected++
		}
	}
	if len(order) < n/2 {
		t.Fatalf("seed %d: only %d events executed; workload too small to mean anything", seed, len(order))
	}
	return order, times
}

// TestEngineSparseChunkedVsReference is the differential ordering test at
// print density, where most wheel windows are empty and the drain loop
// skips them: delays from the STEP pulse width to several wheel
// rotations, driven by Run in random chunks instead of RunUntilIdle.
func TestEngineSparseChunkedVsReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		sparseRun(t, NewEngine(), seed)
	}
}

// TestEngineResetAfterStop stops an engine with events pending in several
// wheel slots and in the heap, resets it, and checks the reset engine is
// indistinguishable from a fresh one: same internal queue state and the
// same run, event for event.
func TestEngineResetAfterStop(t *testing.T) {
	e := NewEngine()
	for i := Time(0); i < 12; i++ {
		e.Schedule(i*5*wheelSlot+i, func() {})
	}
	e.Schedule(3*wheelSpan+17, func() {})
	e.Schedule(20*wheelSlot+1, func() { e.Stop() })
	if err := e.Run(10 * wheelSpan); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	occupied := 0
	for _, w := range e.occ {
		occupied += bits.OnesCount64(w)
	}
	if occupied < 2 || len(e.heap) == 0 {
		t.Fatalf("stopped with %d occupied slots and %d heap events; want several of each kind", occupied, len(e.heap))
	}

	e.Reset()
	fresh := NewEngine()
	if e.occ != fresh.occ || e.base != fresh.base || len(e.heap) != 0 ||
		e.Pending() != 0 || e.Now() != 0 || e.Executed() != 0 {
		t.Fatalf("Reset left state behind: occ %x base %v heap %d pending %d now %v executed %d",
			e.occ, e.base, len(e.heap), e.Pending(), e.Now(), e.Executed())
	}
	for s, slot := range e.slots {
		if len(slot) != 0 {
			t.Fatalf("Reset left %d events in slot %d", len(slot), s)
		}
	}

	gotOrder, gotTimes := sparseRun(t, e, 5)
	wantOrder, wantTimes := sparseRun(t, fresh, 5)
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("reset engine executed %d events, fresh %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] || gotTimes[i] != wantTimes[i] {
			t.Fatalf("reset engine diverges at %d: id %d at %v, fresh id %d at %v",
				i, gotOrder[i], gotTimes[i], wantOrder[i], wantTimes[i])
		}
	}
	if e.Executed() != fresh.Executed() || e.Now() != fresh.Now() {
		t.Fatalf("reset engine ends at %v after %d events, fresh at %v after %d",
			e.Now(), e.Executed(), fresh.Now(), fresh.Executed())
	}
}

// stepTrain is a periodic STEP-like edge source: each rising edge
// schedules its 2 µs falling edge and the next rising edge one period on.
type stepTrain struct {
	e      *Engine
	period Time
}

func (s *stepTrain) FireEdge(arg uint64) {
	if arg == 1 {
		s.e.AfterEdge(2*Microsecond, s, 0)
		s.e.AfterEdge(s.period, s, 1)
	}
}

// BenchmarkEngineSparse measures the print's shape: four step trains at
// 100–400 µs periods plus a 5 ms ticker (past the wheel horizon, so it
// lives in the heap), about one event per 22 µs, on one engine Reset
// between iterations the way a pooled testbed core reuses it. Most wheel
// windows are empty, which is what the drain loop's occupancy skip is for.
func BenchmarkEngineSparse(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for _, p := range []Time{100, 170, 250, 400} {
			e.ScheduleEdge(0, &stepTrain{e: e, period: p * Microsecond}, 1)
		}
		cancel := e.Ticker(5*Millisecond, func(Time) {})
		if err := e.Run(Second); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.ReportMetric(float64(e.Executed()), "events/op")
}
