package farm

import (
	"strings"
	"testing"
	"time"
)

// fakeClock advances only when told, making lease expiry deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClockQueue(names []string, ttl time.Duration) (*Queue, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q := NewQueue(names, ttl)
	q.Now = clk.now
	q.Release(names...)
	return q, clk
}

func TestQueueLeaseOrderFIFO(t *testing.T) {
	q, _ := newClockQueue([]string{"a", "b", "c"}, time.Minute)
	for _, want := range []string{"a", "b", "c"} {
		r := q.Lease("w")
		if r.Status != StatusLease || r.Scenario != want {
			t.Fatalf("lease = %+v, want scenario %q", r, want)
		}
	}
	if r := q.Lease("w"); r.Status != StatusWait {
		t.Fatalf("lease with all in flight = %+v, want wait", r)
	}
}

func TestQueueExpiryRequeuesAtFront(t *testing.T) {
	q, clk := newClockQueue([]string{"a", "b", "c"}, time.Minute)
	la := q.Lease("w1")
	lb := q.Lease("w2")
	clk.advance(2 * time.Minute) // both leases expire

	// Expired scenarios return to the front in grant order: a, b, then c.
	for _, want := range []string{"a", "b", "c"} {
		r := q.Lease("w3")
		if r.Scenario != want {
			t.Fatalf("post-expiry lease = %q, want %q", r.Scenario, want)
		}
	}
	// The dead leases' tokens no longer heartbeat.
	if q.Heartbeat(la.Token) || q.Heartbeat(lb.Token) {
		t.Error("expired lease still heartbeats")
	}
}

func TestQueueHeartbeatExtends(t *testing.T) {
	q, clk := newClockQueue([]string{"a"}, time.Minute)
	l := q.Lease("w")
	clk.advance(45 * time.Second)
	if !q.Heartbeat(l.Token) {
		t.Fatal("live lease refused heartbeat")
	}
	clk.advance(45 * time.Second) // 90s total, but extended at 45s
	if !q.Heartbeat(l.Token) {
		t.Fatal("extended lease expired anyway")
	}
	clk.advance(2 * time.Minute)
	if q.Heartbeat(l.Token) {
		t.Fatal("expired lease accepted heartbeat")
	}
}

func TestQueueCompleteDedupes(t *testing.T) {
	q, clk := newClockQueue([]string{"a"}, time.Minute)
	l1 := q.Lease("w1")
	clk.advance(2 * time.Minute)
	l2 := q.Lease("w2") // re-lease after expiry
	if l2.Scenario != "a" {
		t.Fatalf("re-lease = %q, want a", l2.Scenario)
	}

	// The expired lease finishes anyway: first completion wins.
	if got := q.Complete(l1.Token, "a"); got != CompleteAccepted {
		t.Fatalf("first completion = %q, want accepted", got)
	}
	if got := q.Complete(l2.Token, "a"); got != CompleteDuplicate {
		t.Fatalf("second completion = %q, want duplicate", got)
	}
	if got := q.Complete("L99", "nope"); got != CompleteUnknown {
		t.Fatalf("unknown scenario completion = %q, want unknown", got)
	}
	if !q.Done() {
		t.Error("queue not done after its only scenario completed")
	}
	if r := q.Lease("w3"); r.Status != StatusDone {
		t.Errorf("lease after done = %+v, want done", r)
	}
}

func TestQueueMarkDoneSeedsResume(t *testing.T) {
	q, _ := newClockQueue([]string{"a", "b", "c"}, time.Minute)
	if !q.MarkDone("b") {
		t.Fatal("MarkDone(b) = false")
	}
	if q.MarkDone("b") {
		t.Fatal("second MarkDone(b) = true")
	}
	if q.MarkDone("zzz") {
		t.Fatal("MarkDone of unknown scenario = true")
	}
	var got []string
	for i := 0; i < 2; i++ {
		got = append(got, q.Lease("w").Scenario)
	}
	if got[0] != "a" || got[1] != "c" {
		t.Errorf("resumed queue leased %v, want [a c]", got)
	}
}

func TestQueueExpiryStrikesIntoQuarantine(t *testing.T) {
	q, clk := newClockQueue([]string{"a", "b"}, time.Minute)
	q.MaxStrikes = 2
	fired := 0
	q.OnQuarantine = func() { fired++ }

	// Burn two leases of "a" by expiry; the second strike quarantines it.
	if r := q.Lease("w"); r.Scenario != "a" {
		t.Fatalf("first lease = %q, want a", r.Scenario)
	}
	clk.advance(2 * time.Minute)
	// The next lease reaps the expired one (strike 1) and re-deals "a"
	// from the queue front.
	if r := q.Lease("w"); r.Scenario != "a" {
		t.Fatalf("post-expiry lease = %q, want a", r.Scenario)
	}
	clk.advance(2 * time.Minute)
	// Strike 2 quarantines "a"; the lease moves on to "b".
	if r := q.Lease("w"); r.Scenario != "b" {
		t.Fatalf("post-quarantine lease = %q, want b", r.Scenario)
	}
	qs := q.Quarantined()
	if len(qs) != 1 || qs[0].Scenario != "a" || qs[0].Strikes != 2 {
		t.Fatalf("Quarantined() = %+v, want a with 2 strikes", qs)
	}
	if !strings.Contains(qs[0].Reason, "expired without completing") {
		t.Errorf("reason = %q, want an expiry reason", qs[0].Reason)
	}
	if fired == 0 {
		t.Error("OnQuarantine never fired")
	}
	if _, _, _, quarantined, _ := q.Counts(); quarantined != 1 {
		t.Errorf("Counts() quarantined = %d, want 1", quarantined)
	}
}

func TestQueueFailPathQuarantinesAndSettles(t *testing.T) {
	q, _ := newClockQueue([]string{"a", "b"}, time.Minute)
	q.MaxStrikes = 2
	fired := 0
	q.OnQuarantine = func() { fired++ }

	if got := q.Fail("L99", "zzz", "x"); got != FailUnknown {
		t.Fatalf("Fail(unknown scenario) = %q", got)
	}

	// First failure strikes and requeues "a" at the *back*.
	l := q.Lease("w")
	if got := q.Fail(l.Token, "a", "compile exploded"); got != FailAccepted {
		t.Fatalf("first Fail = %q, want accepted", got)
	}
	if r := q.Lease("w"); r.Scenario != "b" {
		t.Fatalf("post-fail lease = %q, want b (failed scenario goes to the back)", r.Scenario)
	}

	// Second failure of "a" quarantines it.
	l = q.Lease("w")
	if l.Scenario != "a" {
		t.Fatalf("lease = %q, want a", l.Scenario)
	}
	if got := q.Fail(l.Token, "a", "compile exploded again"); got != FailQuarantined {
		t.Fatalf("second Fail = %q, want quarantined", got)
	}
	if fired != 1 {
		t.Errorf("OnQuarantine fired %d times, want 1", fired)
	}
	qs := q.Quarantined()
	if len(qs) != 1 || qs[0].Reason != "compile exploded again" {
		t.Fatalf("Quarantined() = %+v", qs)
	}
	// A repeat failure report for a parked scenario is idempotent.
	if got := q.Fail("L77", "a", "again"); got != FailQuarantined {
		t.Errorf("Fail on parked scenario = %q, want quarantined", got)
	}

	// b completes → the queue settles with one done + one quarantined.
	if got := q.Complete(q.byName["b"], "b"); got != CompleteAccepted {
		t.Fatalf("complete b = %q", got)
	}
	if !q.Done() {
		t.Error("queue not done with every scenario completed or quarantined")
	}
	if r := q.Lease("w"); r.Status != StatusDone {
		t.Errorf("lease on settled queue = %+v, want done", r)
	}
	if got := q.Fail("L50", "b", "late"); got != FailDuplicate {
		t.Errorf("Fail on done scenario = %q, want duplicate", got)
	}
}

func TestQueueFailDoesNotDoubleStrikeExpiredLease(t *testing.T) {
	q, clk := newClockQueue([]string{"a"}, time.Minute)
	q.MaxStrikes = 2
	l := q.Lease("w")
	clk.advance(2 * time.Minute)
	q.Lease("w2") // reap strikes the expired lease and re-deals "a"
	// The original worker's late failure report must not add a second
	// strike — its lease's strike was the reap's.
	if got := q.Fail(l.Token, "a", "late report"); got != FailAccepted {
		t.Fatalf("late Fail = %q, want accepted (no-op)", got)
	}
	if qs := q.Quarantined(); len(qs) != 0 {
		t.Fatalf("one lease produced two strikes: %+v", qs)
	}
}

func TestQueueCompleteRescuesQuarantined(t *testing.T) {
	q, _ := newClockQueue([]string{"a"}, time.Minute)
	q.MaxStrikes = 1
	l := q.Lease("w")
	if got := q.Fail(l.Token, "a", "flaky"); got != FailQuarantined {
		t.Fatalf("Fail = %q, want quarantined", got)
	}
	// A straggler's real completion beats the synthesized failure row.
	if got := q.Complete(l.Token, "a"); got != CompleteAccepted {
		t.Fatalf("Complete of quarantined scenario = %q, want accepted", got)
	}
	if qs := q.Quarantined(); len(qs) != 0 {
		t.Errorf("scenario still parked after rescue: %+v", qs)
	}
	if !q.Done() {
		t.Error("queue not done after rescue")
	}
}

func TestQueueDrainStopsLeasingOnly(t *testing.T) {
	q, _ := newClockQueue([]string{"a", "b"}, time.Minute)
	l := q.Lease("w")
	q.Drain()
	if !q.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if r := q.Lease("w2"); r.Status != StatusDrain {
		t.Fatalf("lease while draining = %+v, want drain", r)
	}
	// In-flight work still heartbeats and completes.
	if !q.Heartbeat(l.Token) {
		t.Error("heartbeat refused while draining")
	}
	if got := q.Complete(l.Token, l.Scenario); got != CompleteAccepted {
		t.Errorf("complete while draining = %q, want accepted", got)
	}
}

func TestQueueNoQuarantineWithoutMaxStrikes(t *testing.T) {
	q, clk := newClockQueue([]string{"a"}, time.Minute)
	// MaxStrikes = 0: a flaky scenario is re-dealt forever, never parked.
	for i := 0; i < 5; i++ {
		l := q.Lease("w")
		if l.Scenario != "a" {
			t.Fatalf("round %d leased %q", i, l.Scenario)
		}
		clk.advance(2 * time.Minute)
	}
	if qs := q.Quarantined(); len(qs) != 0 {
		t.Fatalf("quarantined without MaxStrikes: %+v", qs)
	}
}

func TestQueueReopen(t *testing.T) {
	q, _ := newClockQueue([]string{"a", "b"}, time.Minute)
	l := q.Lease("w")
	if got := q.Complete(l.Token, "a"); got != CompleteAccepted {
		t.Fatal(got)
	}
	q.Reopen("a")
	if q.Done() {
		t.Fatal("queue done after reopen")
	}
	// Reopened work comes back at the front, ahead of b.
	if r := q.Lease("w"); r.Scenario != "a" {
		t.Errorf("post-reopen lease = %q, want a", r.Scenario)
	}
}
