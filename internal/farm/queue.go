package farm

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Queue is the coordinator's work queue plus lease table. Scenarios
// move pending → leased → done; a lease that misses its heartbeat
// window expires and its scenario returns to the *front* of the queue
// (a straggler's scenario is the sweep's critical path). Completion is
// keyed by scenario name, not token, so work finished under an expired
// lease still counts — exactly once, first completion wins.
//
// Every lease that ends in expiry or an explicit failure report is a
// strike against its scenario. A scenario that collects MaxStrikes
// strikes is quarantined: parked out of the queue and surfaced in
// status and the final report instead of being re-dealt forever — a
// poison scenario degrades the sweep instead of livelocking it. A
// completion for a quarantined scenario still rescues it (a straggler
// finishing real work beats a synthesized failure row).
type Queue struct {
	// Now is the clock (nil = time.Now); injectable for expiry tests.
	Now func() time.Time
	// MaxStrikes quarantines a scenario once this many of its leases
	// expired or failed (≤ 0 = never quarantine). Set before serving.
	MaxStrikes int
	// OnQuarantine, when non-nil, runs (without the queue's lock) after
	// one or more scenarios are quarantined — the coordinator's hook for
	// noticing a sweep that settled by degradation. Set before serving.
	OnQuarantine func()

	mu         sync.Mutex
	ttl        time.Duration
	draining   bool
	pending    []string
	leases     map[string]*lease // token → live lease
	byName     map[string]string // leased scenario → token
	done       map[string]bool
	known      map[string]bool
	strikes    map[string]int
	quarantine map[string]*QuarantinedScenario
	total      int
	seq        uint64
}

// lease is one outstanding grant.
type lease struct {
	token    string
	scenario string
	worker   string
	seq      uint64
	deadline time.Time
}

// NewQueue builds a queue that knows the scenario names but has
// nothing pending: work arrives only through Release, one scheduler
// round at a time. With nothing pending and the sweep not settled,
// Lease answers StatusWait — the natural barrier workers already poll
// at between rounds. ttl is the heartbeat window granted to each lease.
func NewQueue(names []string, ttl time.Duration) *Queue {
	q := &Queue{
		ttl:        ttl,
		leases:     make(map[string]*lease),
		byName:     make(map[string]string),
		done:       make(map[string]bool),
		known:      make(map[string]bool, len(names)),
		strikes:    make(map[string]int),
		quarantine: make(map[string]*QuarantinedScenario),
		total:      len(names),
	}
	for _, n := range names {
		q.known[n] = true
	}
	return q
}

// MarkDone records a scenario as already complete — how a resumed
// coordinator seeds the queue with the journal's rows. It reports
// whether the scenario was pending.
func (q *Queue) MarkDone(name string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.known[name] || q.done[name] {
		return false
	}
	q.done[name] = true
	q.removePendingLocked(name)
	return true
}

func (q *Queue) now() time.Time {
	if q.Now != nil {
		return q.Now()
	}
	return time.Now()
}

// settledLocked reports whether every scenario is accounted for — done
// or quarantined — i.e. no further work will ever be dealt.
func (q *Queue) settledLocked() bool {
	return len(q.done)+len(q.quarantine) == q.total
}

// strikeLocked records one failed/abandoned lease against a scenario
// and reports whether the strike tipped it into quarantine. reason
// describes the terminal strike for the status output.
func (q *Queue) strikeLocked(name, reason string) bool {
	q.strikes[name]++
	if q.MaxStrikes <= 0 || q.strikes[name] < q.MaxStrikes {
		return false
	}
	q.quarantine[name] = &QuarantinedScenario{
		Scenario: name,
		Strikes:  q.strikes[name],
		Reason:   reason,
	}
	q.removePendingLocked(name)
	return true
}

// reapLocked expires overdue leases: each expiry is a strike, and the
// scenario returns to the queue front — in lease-grant order so
// recovery is deterministic under the map's iteration randomness — or
// into quarantine once it has burned MaxStrikes leases. It reports
// whether any scenario was quarantined.
func (q *Queue) reapLocked(now time.Time) bool {
	var expired []*lease
	for _, l := range q.leases {
		if now.After(l.deadline) {
			expired = append(expired, l)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].seq < expired[j].seq })
	quarantined := false
	var names []string
	for _, l := range expired {
		delete(q.leases, l.token)
		delete(q.byName, l.scenario)
		if q.strikeLocked(l.scenario, fmt.Sprintf("lease %s (worker %s) expired without completing", l.token, l.worker)) {
			quarantined = true
			continue
		}
		names = append(names, l.scenario)
	}
	q.pending = append(names, q.pending...)
	return quarantined
}

// Lease grants the next pending scenario to worker, or reports the
// queue's state (wait: all in flight; done: all complete or
// quarantined; drain: the coordinator is shutting down).
func (q *Queue) Lease(worker string) LeaseReply {
	q.mu.Lock()
	now := q.now()
	quarantined := q.reapLocked(now)
	reply := q.leaseLocked(worker, now)
	q.mu.Unlock()
	if quarantined && q.OnQuarantine != nil {
		q.OnQuarantine()
	}
	return reply
}

func (q *Queue) leaseLocked(worker string, now time.Time) LeaseReply {
	if q.draining {
		return LeaseReply{Status: StatusDrain}
	}
	if len(q.pending) == 0 {
		if q.settledLocked() {
			return LeaseReply{Status: StatusDone}
		}
		return LeaseReply{Status: StatusWait}
	}
	name := q.pending[0]
	q.pending = q.pending[1:]
	q.seq++
	l := &lease{
		token:    fmt.Sprintf("L%d", q.seq),
		scenario: name,
		worker:   worker,
		seq:      q.seq,
		deadline: now.Add(q.ttl),
	}
	q.leases[l.token] = l
	q.byName[name] = l.token
	return LeaseReply{Status: StatusLease, Scenario: name, Token: l.token, TTLMillis: q.ttl.Milliseconds()}
}

// Heartbeat extends a live lease's deadline. False means the lease
// expired (or never existed) — the caller should abandon the scenario,
// which is back in the queue. Heartbeats keep working while draining,
// so in-flight scenarios finish under a coordinator that is shutting
// down gracefully.
func (q *Queue) Heartbeat(token string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	l, ok := q.leases[token]
	if !ok || now.After(l.deadline) {
		return false
	}
	l.deadline = now.Add(q.ttl)
	return true
}

// Complete marks a scenario done. The token is advisory: a completion
// under an expired or superseded lease is still accepted as long as the
// scenario is not already done (determinism makes every completion of a
// scenario bit-identical, so first wins and the rest are duplicates). A
// completion even rescues a quarantined scenario — real rows beat a
// synthesized failure.
func (q *Queue) Complete(token, scenario string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.known[scenario] {
		return CompleteUnknown
	}
	if q.done[scenario] {
		return CompleteDuplicate
	}
	q.done[scenario] = true
	delete(q.quarantine, scenario)
	delete(q.leases, token)
	// The scenario may have been re-leased after this worker's lease
	// expired, or returned to pending; either way it is done now.
	if other, ok := q.byName[scenario]; ok {
		delete(q.leases, other)
		delete(q.byName, scenario)
	}
	q.removePendingLocked(scenario)
	return CompleteAccepted
}

// Fail releases a lease whose scenario could not be run: a strike is
// recorded and the scenario requeued at the back (other work proceeds
// ahead of a suspect scenario), or quarantined once it has exhausted
// MaxStrikes leases. Only the scenario's live lease can strike it —
// a failure report racing its own expiry counts once, not twice.
func (q *Queue) Fail(token, scenario, reason string) string {
	q.mu.Lock()
	status := q.failLocked(token, scenario, reason)
	q.mu.Unlock()
	if status == FailQuarantined && q.OnQuarantine != nil {
		q.OnQuarantine()
	}
	return status
}

func (q *Queue) failLocked(token, scenario, reason string) string {
	if !q.known[scenario] {
		return FailUnknown
	}
	if q.done[scenario] {
		return FailDuplicate
	}
	if _, parked := q.quarantine[scenario]; parked {
		return FailQuarantined
	}
	l, ok := q.leases[token]
	if !ok || l.scenario != scenario {
		// The lease already expired (its strike is the reap's) or was
		// superseded; acknowledge without double-striking.
		return FailAccepted
	}
	delete(q.leases, token)
	delete(q.byName, scenario)
	if reason == "" {
		reason = "worker reported a run failure"
	}
	if q.strikeLocked(scenario, reason) {
		return FailQuarantined
	}
	q.pending = append(q.pending, scenario)
	return FailAccepted
}

// Release appends scenarios to the back of the pending queue, in the
// given order — how a progressive coordinator deals a round. Names that
// are unknown, done, quarantined, leased, or already pending are
// skipped, so releasing is idempotent and can never duplicate work.
// The names are appended, never re-keyed: leases, completion, journal
// rows, and resume all see the same scenario names as a naive sweep.
func (q *Queue) Release(names ...string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	pending := make(map[string]bool, len(q.pending))
	for _, n := range q.pending {
		pending[n] = true
	}
	for _, name := range names {
		if !q.known[name] || q.done[name] || pending[name] {
			continue
		}
		if _, parked := q.quarantine[name]; parked {
			continue
		}
		if _, leased := q.byName[name]; leased {
			continue
		}
		q.pending = append(q.pending, name)
		pending[name] = true
	}
}

// Reopen returns a done scenario to the queue front. The completion
// path uses it when recording an accepted completion's rows failed —
// the ack must not outlive the record, so the scenario re-runs.
func (q *Queue) Reopen(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.known[name] || !q.done[name] {
		return
	}
	delete(q.done, name)
	q.pending = append([]string{name}, q.pending...)
}

// Drain stops dealing work: subsequent Lease calls answer StatusDrain
// (workers exit), while heartbeats and completions keep being honoured
// so in-flight scenarios land before the coordinator goes away.
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
}

// Draining reports whether Drain was called.
func (q *Queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}

func (q *Queue) removePendingLocked(name string) {
	for i, n := range q.pending {
		if n == name {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
}

// Done reports whether the sweep is settled: every scenario completed
// or quarantined, so no further work will ever be dealt.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.settledLocked()
}

// Quarantined snapshots the parked scenarios, sorted by name.
func (q *Queue) Quarantined() []QuarantinedScenario {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantinedScenario, 0, len(q.quarantine))
	for _, rec := range q.quarantine {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario < out[j].Scenario })
	return out
}

// Counts snapshots the queue for status output.
func (q *Queue) Counts() (pending, leased, done, quarantined, total int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending), len(q.leases), len(q.done), len(q.quarantine), q.total
}
