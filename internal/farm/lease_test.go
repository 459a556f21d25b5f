package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
	"offramps/internal/sched"
)

// handlerTransport serves a client's requests straight from a
// coordinator's handler — no sockets, no goroutines — so a schedule of
// protocol calls runs in exactly the order a test issues them. A
// restart swaps the handler behind it.
type handlerTransport struct{ h http.Handler }

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// completion is what a worker sends for one scenario: its comparison
// rows, then its scenario row.
type completion struct {
	compares []json.RawMessage
	row      json.RawMessage
}

// leaseHarness drives one coordinator through its HTTP API on a fake
// clock, checking the state machine's invariants after every call.
type leaseHarness struct {
	t    testing.TB
	spec *offramps.SuiteSpec
	cfg  Config
	clk  *faults.FakeClock
	co   *Coordinator
	tr   *handlerTransport
	cl   *Client
	rows map[string]completion
	// trace is every call and its answer, in order: the transcript a
	// failure prints and a replay must reproduce.
	trace strings.Builder
}

// newLeaseHarness starts a coordinator for spec; rows are the honest
// completions (nil = syntheticRows).
func newLeaseHarness(t testing.TB, spec *offramps.SuiteSpec, cfg Config, rows map[string]completion) *leaseHarness {
	t.Helper()
	if rows == nil {
		rows = syntheticRows(t, spec)
	}
	h := &leaseHarness{t: t, spec: spec, cfg: cfg, clk: faults.NewFakeClock(), rows: rows, tr: &handlerTransport{}}
	h.cfg.Clock = h.clk
	h.cl = &Client{Base: "http://farm.test", HTTP: &http.Client{Transport: h.tr}}
	h.start()
	return h
}

// syntheticRows are valid completions for a program-free suite: one
// completed scenario row each, on the scenario's effective seed.
func syntheticRows(t testing.TB, spec *offramps.SuiteSpec) map[string]completion {
	rows := make(map[string]completion)
	for _, sc := range spec.Scenarios {
		rows[sc.Name] = completion{row: jsonlRow(t, spec.Name, offramps.ScenarioResult{
			Name: sc.Name, Seed: sc.EffectiveSeed(spec.BaseSeed), Result: &offramps.Result{Completed: true},
		})}
	}
	return rows
}

// leaseSuite is a program-free suite: the coordinator never simulates,
// so scenario names are all a lease test needs.
func leaseSuite(names ...string) *offramps.SuiteSpec {
	spec := &offramps.SuiteSpec{Name: "leases", BaseSeed: 1}
	for _, n := range names {
		spec.Scenarios = append(spec.Scenarios, offramps.ScenarioSpec{Name: n})
	}
	return spec
}

// jsonlRow encodes one scenario row as a worker's JSONL sink writes it.
func jsonlRow(t testing.TB, suite string, r offramps.ScenarioResult) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = suite
	if err := sink.Emit(r); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}

func (h *leaseHarness) start() {
	h.t.Helper()
	co, err := NewCoordinator(h.spec, h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	h.co = co
	h.tr.h = co.Handler()
	h.note("start: resumed %d", co.Resumed())
}

// restart kills the coordinator and starts a fresh one over the same
// journal and clock.
func (h *leaseHarness) restart() {
	h.t.Helper()
	if err := h.co.Close(); err != nil {
		h.t.Fatal(err)
	}
	h.start()
}

// note records one call in the trace and checks the state machine's
// invariants after it.
func (h *leaseHarness) note(format string, args ...any) {
	h.t.Helper()
	fmt.Fprintf(&h.trace, format+"\n", args...)
	if err := checkLeaseInvariants(h.co); err != nil {
		h.t.Fatalf("%v\n%s", err, h.trace.String())
	}
}

func (h *leaseHarness) lease(worker string) *LeaseReply {
	h.t.Helper()
	r, err := h.cl.Lease(context.Background(), worker)
	if err != nil {
		h.t.Fatal(err)
	}
	h.note("lease %s: %s %s %s", worker, r.Status, r.Scenario, r.Token)
	return r
}

func (h *leaseHarness) heartbeat(token string) bool {
	h.t.Helper()
	ok, err := h.cl.Heartbeat(context.Background(), token)
	if err != nil {
		h.t.Fatal(err)
	}
	h.note("heartbeat %s: %v", token, ok)
	return ok
}

// complete sends scenario's honest rows under token, or, with reject
// (or for a scenario with no honest rows), a row run on the wrong seed.
// A completion the coordinator refuses answers "error". The body is spliced from the raw rows rather than
// marshalled, which keeps long schedules cheap.
func (h *leaseHarness) complete(token, scenario string, reject bool) string {
	h.t.Helper()
	rows, ok := h.rows[scenario]
	if reject || !ok {
		rows = completion{row: jsonlRow(h.t, h.spec.Name, offramps.ScenarioResult{
			Name: scenario, Seed: 1 << 40, Err: errors.New("ran on the wrong base seed"),
		})}
	}
	var body bytes.Buffer
	fmt.Fprintf(&body, `{"token":%q,"scenario":%q,"compares":[`, token, scenario)
	for i, raw := range rows.compares {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(raw)
	}
	fmt.Fprintf(&body, `],"row":%s}`, rows.row)
	resp, err := h.cl.http().Post(h.cl.url(PathComplete), "application/json", &body)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	status := "error"
	if resp.StatusCode == http.StatusOK {
		var out CompleteReply
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			h.t.Fatal(err)
		}
		status = out.Status
	}
	h.note("complete %s %s reject=%v: %s", scenario, token, reject, status)
	return status
}

func (h *leaseHarness) fail(token, scenario string) string {
	h.t.Helper()
	status, err := h.cl.Fail(context.Background(), FailRequest{Token: token, Scenario: scenario, Error: "run failed under " + token})
	if err != nil {
		h.t.Fatal(err)
	}
	h.note("fail %s %s: %s", scenario, token, status)
	return status
}

func (h *leaseHarness) status() StatusReply {
	h.t.Helper()
	resp, err := h.cl.http().Get(h.cl.url(PathStatus))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

func (h *leaseHarness) settled() bool {
	select {
	case <-h.co.Done():
		return true
	default:
		return false
	}
}

// deliver is a worker finishing its lease: it completes (honestly, or,
// for a scenario whose rows are always rejected, with rows run on the
// wrong seed) and, once its completion is refused, reports the failure
// under its own token, as a worker does when its retries run out.
func (h *leaseHarness) deliver(token, scenario, owner string, reject bool) {
	h.t.Helper()
	if h.complete(token, scenario, reject) == "error" {
		h.fail(owner, scenario)
	}
}

// finish drives the sweep home with one honest worker: every lease
// delivers (poison's rows are rejected), and every wait lets the TTL
// pass so silent workers' leases expire. A delivery settles or strikes
// a scenario and a wait frees every stale lease, so a sweep still open
// after limit leases is hung.
func (h *leaseHarness) finish(poison string, limit int) {
	h.t.Helper()
	if h.status().Draining {
		h.restart()
	}
	for i := 0; !h.settled(); i++ {
		if i == limit {
			h.t.Fatalf("the sweep never settled (status %+v)\n%s", h.status(), h.trace.String())
		}
		switch r := h.lease("finisher"); r.Status {
		case StatusLease:
			h.deliver(r.Token, r.Scenario, r.Token, r.Scenario == poison)
		case StatusWait:
			h.clk.Advance(h.cfg.ttl() + time.Millisecond)
		}
	}
}

// step is one row of a lease script: a protocol call and the answer it
// must get.
type step struct {
	op   string        // lease, heartbeat, complete, reject, fail, advance, drain
	arg  string        // lease: worker; complete, reject, fail: scenario
	tok  string        // heartbeat, complete, reject, fail: lease token
	d    time.Duration // advance: how far the clock moves
	want string        // lease: scenario or status; heartbeat: ok or gone; others: status
}

// run executes a script, failing at the first step whose answer
// differs. Tokens are predictable: the nth lease a coordinator grants
// is "Ln".
func (h *leaseHarness) run(steps ...step) {
	h.t.Helper()
	for i, s := range steps {
		var got string
		switch s.op {
		case "lease":
			r := h.lease(s.arg)
			got = r.Status
			if r.Status == StatusLease {
				got = r.Scenario
			}
		case "heartbeat":
			got = "gone"
			if h.heartbeat(s.tok) {
				got = "ok"
			}
		case "complete", "reject":
			got = h.complete(s.tok, s.arg, s.op == "reject")
		case "fail":
			got = h.fail(s.tok, s.arg)
		case "advance":
			h.clk.Advance(s.d)
		case "drain":
			h.co.Drain()
		default:
			h.t.Fatalf("step %d: unknown op %q", i, s.op)
		}
		if got != s.want {
			h.t.Fatalf("step %d %+v: got %q\n%s", i, s, got, h.trace.String())
		}
	}
}

// checkLeaseInvariants asserts what must hold between any two
// transitions: the per-state counts match the records and sum to the
// total, every live token names a leased record holding exactly that
// token (so no scenario has two live leases), exactly the done records
// hold a row, and Done is closed exactly when the sweep is settled.
func checkLeaseInvariants(co *Coordinator) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	var n [numStates]int
	for name, rec := range co.records {
		n[rec.state]++
		if (rec.state == stateDone) != (rec.row != nil) {
			return fmt.Errorf("%s: state %d with row %t", name, rec.state, rec.row != nil)
		}
		if rec.state == stateLeased && co.tokens[rec.lease.token] != rec {
			return fmt.Errorf("%s: leased under %q, which does not resolve to it", name, rec.lease.token)
		}
	}
	if n != co.count {
		return fmt.Errorf("counts %v, records say %v", co.count, n)
	}
	if len(co.tokens) != n[stateLeased] {
		return fmt.Errorf("%d live tokens for %d leased scenarios", len(co.tokens), n[stateLeased])
	}
	for tok, rec := range co.tokens {
		if rec.state != stateLeased || rec.lease.token != tok {
			return fmt.Errorf("token %s resolves to %s in state %d holding %q", tok, rec.name, rec.state, rec.lease.token)
		}
	}
	settled := n[stateDone]+n[stateQuarantined] == len(co.records)
	select {
	case <-co.done:
		if !settled {
			return fmt.Errorf("Done closed with %v", n)
		}
	default:
		if settled {
			return fmt.Errorf("settled but Done is open")
		}
	}
	return nil
}

func TestQueueLeaseOrderFIFO(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b", "c"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "lease", arg: "w", want: "b"},
		step{op: "lease", arg: "w", want: "c"},
		step{op: "lease", arg: "w", want: StatusWait},
	)
}

// Expired scenarios return to the front in grant order, and the dead
// leases' tokens no longer heartbeat.
func TestQueueExpiryRequeuesAtFront(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b", "c"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w1", want: "a"},
		step{op: "lease", arg: "w2", want: "b"},
		step{op: "advance", d: 2 * time.Minute},
		step{op: "lease", arg: "w3", want: "a"},
		step{op: "lease", arg: "w3", want: "b"},
		step{op: "lease", arg: "w3", want: "c"},
		step{op: "heartbeat", tok: "L1", want: "gone"},
		step{op: "heartbeat", tok: "L2", want: "gone"},
	)
}

func TestQueueHeartbeatExtends(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "advance", d: 45 * time.Second},
		step{op: "heartbeat", tok: "L1", want: "ok"},
		step{op: "advance", d: 45 * time.Second}, // 90s total, but extended at 45s
		step{op: "heartbeat", tok: "L1", want: "ok"},
		step{op: "advance", d: 2 * time.Minute},
		step{op: "heartbeat", tok: "L1", want: "gone"},
	)
}

// The expired lease finishes anyway: first completion wins.
func TestQueueCompleteDedupes(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w1", want: "a"},
		step{op: "advance", d: 2 * time.Minute},
		step{op: "lease", arg: "w2", want: "a"},
		step{op: "complete", tok: "L1", arg: "a", want: CompleteAccepted},
		step{op: "complete", tok: "L2", arg: "a", want: CompleteDuplicate},
		step{op: "complete", tok: "L99", arg: "nope", want: CompleteUnknown},
		step{op: "lease", arg: "w3", want: StatusDone},
	)
	if !h.settled() {
		t.Error("sweep not settled after its only scenario completed")
	}
}

// TestJournalSeedsResume: a restarted coordinator seeds the journal's
// rows as done and deals only the complement, in suite order.
func TestJournalSeedsResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	h := newLeaseHarness(t, leaseSuite("a", "b", "c"), Config{TTL: time.Minute, Journal: journal}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "lease", arg: "w", want: "b"},
		step{op: "complete", tok: "L2", arg: "b", want: CompleteAccepted},
	)
	h.restart()
	if h.co.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", h.co.Resumed())
	}
	h.run(
		step{op: "complete", tok: "L9", arg: "b", want: CompleteDuplicate},
		step{op: "lease", arg: "w", want: "a"},
		step{op: "lease", arg: "w", want: "c"},
		step{op: "lease", arg: "w", want: StatusWait},
	)
}

func TestQueueExpiryStrikesIntoQuarantine(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b"), Config{TTL: time.Minute, MaxStrikes: 2}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "advance", d: 2 * time.Minute},
		// The next lease reaps the expired one (strike 1) and re-deals "a"
		// from the front.
		step{op: "lease", arg: "w", want: "a"},
		step{op: "advance", d: 2 * time.Minute},
		// Strike 2 quarantines "a"; the lease moves on to "b".
		step{op: "lease", arg: "w", want: "b"},
	)
	qs := h.co.Quarantined()
	if len(qs) != 1 || qs[0].Scenario != "a" || qs[0].Strikes != 2 {
		t.Fatalf("Quarantined() = %+v, want a with 2 strikes", qs)
	}
	if !strings.Contains(qs[0].Reason, "expired without completing") {
		t.Errorf("reason = %q, want an expiry reason", qs[0].Reason)
	}
	if st := h.status(); len(st.Quarantined) != 1 || st.Done != 0 {
		t.Errorf("status = %+v, want a quarantined and nothing done", st)
	}
	// The quarantine was observed inline: b's row settles the sweep.
	h.run(step{op: "complete", tok: "L3", arg: "b", want: CompleteAccepted})
	if !h.settled() {
		t.Error("sweep not settled with every scenario done or quarantined")
	}
}

func TestQueueFailPathQuarantinesAndSettles(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b"), Config{TTL: time.Minute, MaxStrikes: 2}, nil)
	h.run(
		step{op: "fail", tok: "L99", arg: "zzz", want: FailUnknown},
		// The first failure strikes "a" and requeues it at the back.
		step{op: "lease", arg: "w", want: "a"},
		step{op: "fail", tok: "L1", arg: "a", want: FailAccepted},
		step{op: "lease", arg: "w", want: "b"},
		// The second failure of "a" quarantines it.
		step{op: "lease", arg: "w", want: "a"},
		step{op: "fail", tok: "L3", arg: "a", want: FailQuarantined},
		// A repeat failure report for a parked scenario is idempotent.
		step{op: "fail", tok: "L77", arg: "a", want: FailQuarantined},
	)
	if qs := h.co.Quarantined(); len(qs) != 1 || qs[0].Reason != "run failed under L3" {
		t.Fatalf("Quarantined() = %+v", qs)
	}
	h.run(
		step{op: "complete", tok: "L2", arg: "b", want: CompleteAccepted},
		step{op: "lease", arg: "w", want: StatusDone},
		step{op: "fail", tok: "L50", arg: "b", want: FailDuplicate},
	)
	if !h.settled() {
		t.Error("sweep not settled with every scenario done or quarantined")
	}
}

// The original worker's late failure report must not add a second
// strike: its lease's strike was the reap's.
func TestQueueFailDoesNotDoubleStrikeExpiredLease(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a"), Config{TTL: time.Minute, MaxStrikes: 2}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "advance", d: 2 * time.Minute},
		step{op: "lease", arg: "w2", want: "a"},
		step{op: "fail", tok: "L1", arg: "a", want: FailAccepted},
		step{op: "heartbeat", tok: "L2", want: "ok"},
	)
	if qs := h.co.Quarantined(); len(qs) != 0 {
		t.Fatalf("one lease produced two strikes: %+v", qs)
	}
}

// A straggler's real completion beats the synthesized failure row.
func TestQueueCompleteRescuesQuarantined(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a"), Config{TTL: time.Minute, MaxStrikes: 1}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "fail", tok: "L1", arg: "a", want: FailQuarantined},
		step{op: "complete", tok: "L1", arg: "a", want: CompleteAccepted},
	)
	if qs := h.co.Quarantined(); len(qs) != 0 {
		t.Errorf("scenario still parked after rescue: %+v", qs)
	}
	if !h.settled() {
		t.Error("sweep not settled after rescue")
	}
}

// In-flight work still heartbeats and completes while draining, and a
// worker joining a draining coordinator exits cleanly having run nothing.
func TestQueueDrainStopsLeasingOnly(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "a"},
		step{op: "drain"},
		step{op: "lease", arg: "w2", want: StatusDrain},
		step{op: "heartbeat", tok: "L1", want: "ok"},
		step{op: "complete", tok: "L1", arg: "a", want: CompleteAccepted},
	)
	if !h.status().Draining {
		t.Error("status does not report draining")
	}
	w := &Worker{Client: h.cl, Name: "late"}
	if n, err := w.Run(context.Background()); err != nil || n != 0 {
		t.Errorf("worker joining a draining coordinator: n=%d err=%v, want a clean exit with 0 scenarios", n, err)
	}
}

// MaxStrikes = 0: a flaky scenario is re-dealt forever, never parked.
func TestQueueNoQuarantineWithoutMaxStrikes(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a"), Config{TTL: time.Minute}, nil)
	for i := 0; i < 5; i++ {
		h.run(
			step{op: "lease", arg: "w", want: "a"},
			step{op: "advance", d: 2 * time.Minute},
		)
	}
	if qs := h.co.Quarantined(); len(qs) != 0 {
		t.Fatalf("quarantined without MaxStrikes: %+v", qs)
	}
}

// TestQueueHoldRelease: the coordinator holds what the scheduler has
// not dealt (an empty deque is "wait", the round barrier), releases a
// round in the scheduler's order, and never re-deals a scenario whose
// row is already stored.
func TestQueueHoldRelease(t *testing.T) {
	// The extra b, then three cells (clean, T1, T2) of two seeds each.
	// Over three cells the scheduler's diverse order is clean, T2, T1,
	// so every round it deals differs from suite order.
	g := &offramps.GridSpec{
		Name:     "leases",
		BaseSeed: 1,
		Extra:    []offramps.ScenarioSpec{{Name: "b"}},
		Axes: offramps.GridAxes{
			Trojans: []offramps.TrojanAxis{{}, {TrojanSpec: offramps.TrojanSpec{Name: "T1"}}, {TrojanSpec: offramps.TrojanSpec{Name: "T2"}}},
			Seeds:   &offramps.SeedAxis{Values: []uint64{1, 2}, Delta: true},
		},
	}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	h := newLeaseHarness(t, suite, Config{TTL: time.Minute, Sched: sched.Config{Budget: len(suite.Scenarios)}}, nil)
	h.run(
		// Round 1 is the extra, then one seed per cell in diverse order.
		step{op: "lease", arg: "w", want: "b"},
		step{op: "lease", arg: "w", want: "clean/d1"},
		step{op: "lease", arg: "w", want: "T2/d1"},
		step{op: "lease", arg: "w", want: "T1/d1"},
		step{op: "lease", arg: "w", want: StatusWait},
		// A completion for a held scenario is stored; round 2 observes it
		// instead of dealing it.
		step{op: "complete", tok: "L9", arg: "clean/d2", want: CompleteAccepted},
		step{op: "complete", tok: "L1", arg: "b", want: CompleteAccepted},
		step{op: "complete", tok: "L2", arg: "clean/d1", want: CompleteAccepted},
		step{op: "complete", tok: "L3", arg: "T2/d1", want: CompleteAccepted},
		step{op: "lease", arg: "w", want: StatusWait},
		step{op: "complete", tok: "L4", arg: "T1/d1", want: CompleteAccepted},
		// Round 2 deals the two cells still open, T2 before T1.
		step{op: "lease", arg: "w", want: "T2/d2"},
		step{op: "lease", arg: "w", want: "T1/d2"},
		step{op: "lease", arg: "w", want: StatusWait},
		step{op: "complete", tok: "L5", arg: "T2/d2", want: CompleteAccepted},
		step{op: "complete", tok: "L6", arg: "T1/d2", want: CompleteAccepted},
		step{op: "lease", arg: "w", want: StatusDone},
	)
	if st := h.co.SweepStats(); st.Executed != len(suite.Scenarios) || st.Rounds != 2 {
		t.Errorf("sweep stats %+v, want %d executed over 2 rounds", st.Stats, len(suite.Scenarios))
	}
}

// TestDoneWaitsForEveryRow: Done counts stored rows. A completion whose
// rows are rejected leaves its scenario leased, so Done stays open
// until the rows land, and Report then succeeds.
func TestDoneWaitsForEveryRow(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("x", "y"), Config{}, nil)
	h.run(
		step{op: "lease", arg: "w", want: "x"},
		step{op: "lease", arg: "w", want: "y"},
		step{op: "reject", tok: "L1", arg: "x", want: "error"},
		step{op: "complete", tok: "L2", arg: "y", want: CompleteAccepted},
	)
	if h.settled() {
		t.Fatal("Done closed while x's rows were unrecorded")
	}
	h.run(
		step{op: "heartbeat", tok: "L1", want: "ok"},
		step{op: "complete", tok: "L1", arg: "x", want: CompleteAccepted},
	)
	if !h.settled() {
		t.Fatal("Done still open after every row was recorded")
	}
	if _, err := h.co.Report(); err != nil {
		t.Fatalf("Report after Done: %v", err)
	}
}

// TestForeignTokenDoesNotOrphan: a completion carrying another
// scenario's live token settles its own scenario and leaves the other
// lease alone. When that lease's worker then dies, the lease expires
// and its scenario is dealt again instead of being lost.
func TestForeignTokenDoesNotOrphan(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b"), Config{TTL: time.Minute}, nil)
	h.run(
		step{op: "lease", arg: "w1", want: "a"},
		step{op: "lease", arg: "w2", want: "b"},
		step{op: "complete", tok: "L2", arg: "a", want: CompleteAccepted},
		step{op: "heartbeat", tok: "L2", want: "ok"},
		step{op: "advance", d: 2 * time.Minute},
		step{op: "lease", arg: "w3", want: "b"},
		step{op: "complete", tok: "L3", arg: "b", want: CompleteAccepted},
	)
	if !h.settled() {
		t.Fatal("sweep not settled")
	}
}

// TestRejectedRowsStrikeIntoQuarantine: the coordinator rejects every
// completion of a scenario (a wrong effective seed). Each worker's
// fail report then strikes the still-live lease, so the scenario is
// quarantined after exactly MaxStrikes reports and the sweep settles.
func TestRejectedRowsStrikeIntoQuarantine(t *testing.T) {
	h := newLeaseHarness(t, leaseSuite("a", "b"), Config{TTL: time.Minute, MaxStrikes: 2}, nil)
	h.run(
		step{op: "lease", arg: "w1", want: "a"},
		step{op: "lease", arg: "w2", want: "b"},
		step{op: "complete", tok: "L2", arg: "b", want: CompleteAccepted},
		step{op: "reject", tok: "L1", arg: "a", want: "error"},
		step{op: "fail", tok: "L1", arg: "a", want: FailAccepted},
		step{op: "lease", arg: "w1", want: "a"},
		step{op: "reject", tok: "L3", arg: "a", want: "error"},
		step{op: "fail", tok: "L3", arg: "a", want: FailQuarantined},
		step{op: "lease", arg: "w1", want: StatusDone},
	)
	qs := h.co.Quarantined()
	if len(qs) != 1 || qs[0].Scenario != "a" || qs[0].Strikes != 2 {
		t.Fatalf("Quarantined() = %+v, want a with 2 strikes", qs)
	}
	if !h.settled() {
		t.Fatal("sweep not settled")
	}
}

// TestForeignComparisonRejected: a completion whose comparisons the
// suite does not draw for that scenario is refused before anything is
// journaled, so the journal still resumes.
func TestForeignComparisonRejected(t *testing.T) {
	spec := leaseSuite("g", "a", "b")
	spec.Compare = []offramps.CompareSpec{{Golden: "g", Suspect: "a"}}
	rows := syntheticRows(t, spec)
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = spec.Name
	if err := sink.EmitCompare(offramps.CompareResult{Golden: "g", Suspect: "b"}); err != nil {
		t.Fatal(err)
	}
	a := rows["a"]
	a.compares = []json.RawMessage{bytes.TrimSpace(buf.Bytes())}
	rows["a"] = a

	h := newLeaseHarness(t, spec, Config{TTL: time.Minute, Journal: filepath.Join(t.TempDir(), "sweep.jsonl")}, rows)
	h.run(
		step{op: "lease", arg: "w", want: "g"},
		step{op: "lease", arg: "w", want: "a"},
		step{op: "complete", tok: "L2", arg: "a", want: "error"},
	)
	h.restart()
}
