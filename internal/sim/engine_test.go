package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(50, func() { got = append(got, i) })
	}
	if err := e.Run(50); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestEngineRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(200, func() { ran = true })
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Error("event beyond horizon ran")
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
	if err := e.Run(300); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Error("event did not run after horizon extended")
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.After(10, recurse)
		}
	}
	e.Schedule(0, recurse)
	if err := e.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if e.Executed() != 5 {
		t.Errorf("Executed() = %d, want 5", e.Executed())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	if err := e.Run(100); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(10, func() { count++; e.Stop() })
	e.Schedule(20, func() { count++ })
	err := e.Run(100)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1 (second event must stay queued)", count)
	}
	if err := e.Run(100); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if count != 2 {
		t.Errorf("count after resume = %d, want 2", count)
	}
}

func TestEngineRunUntilIdle(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(10, func() {
		n++
		e.After(5, func() { n++ })
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatalf("RunUntilIdle: %v", err)
	}
	if n != 2 {
		t.Errorf("n = %d, want 2", n)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	cancel := e.Ticker(100, func(now Time) { ticks = append(ticks, now) })
	if err := e.Run(450); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		if want := Time(100 * (i + 1)); at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
	cancel()
	if err := e.Run(10_000); err != nil {
		t.Fatalf("Run after cancel: %v", err)
	}
	if len(ticks) != 4 {
		t.Errorf("ticker fired after cancel: %d ticks", len(ticks))
	}
}

func TestTickerCancelFromWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var cancel func()
	cancel = e.Ticker(10, func(Time) {
		n++
		if n == 3 {
			cancel()
		}
	})
	if err := e.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
}

// schedProbe records the engine's Scheduled instant from inside the
// ScheduleEdge events it fires.
type schedProbe struct {
	e   *Engine
	got *[]Time
}

func (p schedProbe) FireEdge(uint64) { *p.got = append(*p.got, p.e.Scheduled()) }

// TestEngineScheduled: inside an event Scheduled is the Now of the call
// that queued it, whichever path queued it; outside one — before and
// between Run calls, after Stop ends a run, and after Reset — it is
// math.MaxInt64.
func TestEngineScheduled(t *testing.T) {
	e := NewEngine()
	outside := func(when string) {
		t.Helper()
		if got := e.Scheduled(); got != math.MaxInt64 {
			t.Errorf("Scheduled() %s = %v, want MaxInt64", when, got)
		}
	}
	outside("on a new engine")
	var got []Time
	record := func() { got = append(got, e.Scheduled()) }
	probe := schedProbe{e, &got}
	check := func(when string, want ...Time) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: Scheduled() = %v, want %v", when, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: Scheduled() = %v, want %v", when, got, want)
			}
		}
		got = got[:0]
	}

	e.Schedule(100, record)
	e.ScheduleEdge(150, probe, 0)
	e.Schedule(200, func() {
		record()
		e.After(50, record)
		e.AfterEdge(60, probe, 0)
		e.Schedule(200, record) // same instant, queued from inside
	})
	if err := e.Run(300); err != nil {
		t.Fatal(err)
	}
	check("Schedule, ScheduleEdge, nested", 0, 0, 0, 200, 200, 200)
	outside("between Run calls")

	// A far-tier event keeps its instant through promotion.
	e.Schedule(300+10*wheelSpan, record)
	cancel := e.Ticker(100, func(Time) { record() })
	if err := e.Run(550); err != nil {
		t.Fatal(err)
	}
	cancel()
	check("Ticker", 300, 400)
	if err := e.Run(300 + 10*wheelSpan); err != nil {
		t.Fatal(err)
	}
	check("far tier", 300)

	start := e.Now()
	e.After(10, func() {
		e.Stop()
		record() // Stop ends the run after this event, not before
	})
	e.After(20, record)
	if err := e.Run(start + 100); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	check("stopping event", start)
	outside("after Stop")
	if err := e.Run(start + 100); err != nil {
		t.Fatal(err)
	}
	check("resumed run", start)

	e.Schedule(e.Now()+10, record) // left queued
	e.Reset()
	outside("after Reset")
	e.Schedule(5, record)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	check("after Reset", 0)
}

// TestEventLayout guards the size of a queued event: the queue tiers
// move events by value, and each word more slows every dispatch.
func TestEventLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 48", got)
	}
}

// TestScheduleFuncDoesNotAllocate: Schedule stores a func as the
// event's target without boxing it.
func TestScheduleFuncDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now()+1, fn)
		if err := e.Run(e.Now() + 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Schedule+Run allocates %v times per event", allocs)
	}
	if n != 101 {
		t.Errorf("ran %d events, want 101", n)
	}
}

func TestTimeConversions(t *testing.T) {
	if got := FromDuration(1500 * time.Microsecond); got != 1500*Microsecond {
		t.Errorf("FromDuration = %v", got)
	}
	if got := FromSeconds(2.5); got != 2500*Millisecond {
		t.Errorf("FromSeconds = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds() = %v", got)
	}
	if got := Time(-5 * int64(Second)).String(); got != "-5s" {
		t.Errorf("negative String() = %q", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.5s" {
		t.Errorf("String() = %q", got)
	}
}

// Property: for any batch of events with arbitrary non-negative offsets,
// the engine executes them in non-decreasing time order and ends with an
// empty queue.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var executed []Time
		for _, off := range offsets {
			at := Time(off)
			e.Schedule(at, func() { executed = append(executed, at) })
		}
		if err := e.RunUntilIdle(); err != nil {
			return false
		}
		if len(executed) != len(offsets) {
			return false
		}
		for i := 1; i < len(executed); i++ {
			if executed[i] < executed[i-1] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

// Property: Jitter stays within the requested magnitude.
func TestRandJitterBoundsProperty(t *testing.T) {
	r := NewRand(99)
	f := func(mag uint16) bool {
		m := Time(mag)
		j := r.Jitter(m)
		return j >= -m && j <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRandJitterZeroMagnitude(t *testing.T) {
	r := NewRand(1)
	if got := r.Jitter(0); got != 0 {
		t.Errorf("Jitter(0) = %v, want 0", got)
	}
}

func TestRandIntnUniformish(t *testing.T) {
	r := NewRand(5)
	buckets := make([]int, 10)
	const draws = 100_000
	for i := 0; i < draws; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Errorf("bucket %d count %d deviates too far from %d", i, c, draws/10)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j), func() {})
		}
		if err := e.RunUntilIdle(); err != nil {
			b.Fatal(err)
		}
	}
}
