package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
	"offramps/internal/sched"
)

// maxBodyBytes bounds request and reply bodies; completion rows are
// summary rows (no captures), so even a comparison-heavy scenario stays
// far under this.
const maxBodyBytes = 16 << 20

// Config tunes a coordinator. The zero value is usable: 30s TTL, no
// journal, no quarantine, OS-managed journal flushing.
type Config struct {
	// TTL is the per-lease heartbeat window (0 = 30s).
	TTL time.Duration
	// Journal, when non-empty, persists (and resumes) the sweep.
	Journal string
	// SyncEvery fsyncs the journal after every Nth accepted completion
	// (1 = every completion; ≤ 0 = leave flushing to the OS).
	SyncEvery int
	// MaxStrikes quarantines a scenario once this many of its leases
	// expired or failed (≤ 0 = never quarantine).
	MaxStrikes int
	// Clock is the time source for lease expiry (nil = faults.Wall{});
	// injectable so chaos runs control when leases die.
	Clock faults.Clock
	// Sched is the budget and early stop of the scheduler that deals
	// scenarios (offramps.SuiteSpec.Scheduler). Non-zero on a grid suite,
	// scenarios are released in rounds (coverage, then boundary-first
	// refinement) and retired scenarios become journaled skip rows. The
	// zero value deals one round of every scenario in suite order,
	// nothing skipped. Scenarios are reordered, never re-keyed, so
	// journals, resume, quarantine, and stitching work unchanged — but a
	// resumed sweep must be given the same Sched it started with, or the
	// re-derived schedule will not match the journal.
	Sched sched.Config
}

func (cfg Config) ttl() time.Duration {
	if cfg.TTL > 0 {
		return cfg.TTL
	}
	return 30 * time.Second
}

func (cfg Config) clock() faults.Clock {
	if cfg.Clock != nil {
		return cfg.Clock
	}
	return faults.Wall{}
}

// state is where one scenario stands in the sweep. The transitions,
// each taken under Coordinator.mu, are:
//
//	event           from                           to
//	resume seeding  held                           done (the journal's row)
//	retirement      held                           done (a synthesized skip row)
//	release         held                           pending, back of the deque
//	lease           pending, front of the deque    leased (fresh token, deadline now+TTL)
//	heartbeat       leased, token live             leased (deadline now+TTL)
//	expiry          leased, deadline passed        pending at the front, +1 strike
//	fail            leased, its own token          pending at the back, +1 strike
//	complete        held, pending, leased,         done, once its rows are validated
//	                or quarantined                 and journaled
//
// A strike that reaches MaxStrikes sends the scenario to quarantined
// instead of pending. Anything else leaves the record as it was: a
// completion whose rows are rejected or cannot be journaled, a fail
// report under a token that is not the scenario's live lease, a
// release of a scenario the scheduler dealt before. Done is final.
//
// Pending and leased scenarios belong to the scheduler's current round:
// when one moves to done or quarantined the scheduler observes its
// verdict (the stored row's, or Errored), and when none is left open
// the scheduler deals the next round. Done counts stored rows, so the
// sweep is settled exactly when every scenario is done or quarantined.
type state uint8

const (
	stateHeld state = iota
	statePending
	stateLeased
	stateDone
	stateQuarantined
	numStates
)

// record is everything the coordinator knows about one scenario.
type record struct {
	name    string
	seed    uint64 // the effective seed its row must carry
	state   state
	strikes int
	reason  string          // why the last strike was taken
	lease   lease           // the live lease while leased
	row     json.RawMessage // the stored scenario row once done
}

// lease is one outstanding grant.
type lease struct {
	token    string
	worker   string
	seq      uint64
	deadline time.Time
}

// Coordinator owns one sweep: the expanded suite, one record per
// scenario moving through the state machine above, the collected raw
// rows, and (optionally) a JSONL journal that makes the sweep
// resumable. It is deliberately simulation-free — all printing happens
// in workers — so a coordinator for a million-scenario sweep is a table
// of names and a file of rows. Its HTTP API is Handler.
//
// Resumability: every accepted completion appends its rows to the
// journal (comparisons first, then the scenario row) before the worker
// sees the ack, fsynced on the configured cadence. A restarted
// coordinator reads the journal back through the resume index —
// tolerating the torn trailing line a crash leaves — compacts the file
// (atomically, temp-file + rename) if the crash left a torn tail or
// duplicate rows, and deals only the complement, so the sweep continues
// instead of restarting. The journal is the same row format `suite
// -jsonl` writes, so `suite -merge` can also stitch it directly.
//
// Degradation: a scenario failed or abandoned by MaxStrikes distinct
// leases is quarantined — parked, surfaced in /v1/status, and reported
// as an error row in the stitched report — instead of being re-dealt
// forever. Drain mode (SIGTERM in cmd/coordinator) stops dealing work
// while honouring in-flight heartbeats and completions, then flushes
// and closes the journal so the sweep resumes cleanly elsewhere.
type Coordinator struct {
	Suite *offramps.SuiteSpec
	// Progress, when non-nil, receives one line per stored row.
	Progress io.Writer

	suiteJSON  []byte
	ttl        time.Duration
	maxStrikes int
	clock      faults.Clock
	suspects   map[string]string // comparison key → its suspect scenario
	resumed    int
	compacted  int

	mu       sync.Mutex
	records  map[string]*record
	tokens   map[string]*record // live lease token → its record
	deque    []*record          // pending order; entries no longer pending are tombstones
	count    [numStates]int
	seq      uint64
	draining bool
	compares map[string]json.RawMessage
	journal  *Journal
	sched    *sched.Scheduler
	schedErr error

	doneOnce sync.Once
	done     chan struct{}
}

// NewCoordinator builds the coordinator for a validated suite.
func NewCoordinator(suite *offramps.SuiteSpec, cfg Config) (*Coordinator, error) {
	if err := suite.Validate(); err != nil {
		return nil, err
	}
	suiteJSON, err := json.Marshal(suite)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		Suite:      suite,
		suiteJSON:  suiteJSON,
		ttl:        cfg.ttl(),
		maxStrikes: cfg.MaxStrikes,
		clock:      cfg.clock(),
		suspects:   make(map[string]string, len(suite.Compare)),
		records:    make(map[string]*record, len(suite.Scenarios)),
		tokens:     make(map[string]*record),
		compares:   make(map[string]json.RawMessage),
		done:       make(chan struct{}),
	}
	for _, sc := range suite.Scenarios {
		c.records[sc.Name] = &record{name: sc.Name, seed: sc.EffectiveSeed(suite.BaseSeed)}
	}
	c.count[stateHeld] = len(c.records)
	for _, cmp := range suite.Compare {
		c.suspects[offramps.CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)] = cmp.Suspect
	}
	if c.sched, err = suite.Scheduler(cfg.Sched); err != nil {
		return nil, err
	}

	if cfg.Journal != "" {
		if f, err := os.Open(cfg.Journal); err == nil {
			ix, rerr := offramps.ReadResumeIndex(f, suite.Name)
			f.Close()
			if rerr != nil {
				return nil, fmt.Errorf("farm: journal %s: %w", cfg.Journal, rerr)
			}
			if err := ix.Validate(suite); err != nil {
				return nil, fmt.Errorf("farm: journal %s: %w", cfg.Journal, err)
			}
			// A torn tail or duplicate rows mean the file carries dead
			// weight (and appending after a torn line would corrupt it):
			// compact first-wins before reopening for append.
			if ix.Torn || ix.Dups > 0 {
				dropped, cerr := CompactJournal(cfg.Journal)
				if cerr != nil {
					return nil, cerr
				}
				c.compacted = dropped
			}
			for name, raw := range ix.Scenarios {
				rec := c.records[name]
				rec.row = raw
				c.move(rec, stateDone)
			}
			for key, raw := range ix.Compares {
				c.compares[key] = raw
			}
			c.resumed = len(ix.Scenarios)
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("farm: journal: %w", err)
		}
		j, err := OpenJournal(cfg.Journal, cfg.SyncEvery)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	// Replay the schedule against whatever the journal already proved:
	// resumed rows observe instantly, re-derived retirements are no-ops
	// when already journaled, and the first round with genuinely open
	// work is released.
	c.mu.Lock()
	c.advanceLocked()
	c.settleLocked()
	err = c.schedErr
	c.mu.Unlock()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("farm: progressive schedule: %w", err)
	}
	return c, nil
}

// move is the one writer of record.state, so the per-state counts
// always sum to the number of scenarios. Callers hold c.mu (or own c
// exclusively, during construction).
func (c *Coordinator) move(rec *record, to state) {
	c.count[rec.state]--
	c.count[to]++
	rec.state = to
}

// endLeaseLocked forgets rec's live lease, if it has one.
func (c *Coordinator) endLeaseLocked(rec *record) {
	if rec.state == stateLeased {
		delete(c.tokens, rec.lease.token)
		rec.lease = lease{}
	}
}

// settleLocked closes Done once every scenario is done or quarantined.
func (c *Coordinator) settleLocked() {
	if c.count[stateDone]+c.count[stateQuarantined] == len(c.records) {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// observeLocked feeds the scheduler the verdict of a record that just
// left its round (pending or leased) and, once the round has no open
// record left, deals the next one.
func (c *Coordinator) observeLocked(name string, v sched.Verdict) {
	if err := c.sched.Observe(name, v); err != nil && c.schedErr == nil {
		c.schedErr = err
	}
	c.advanceLocked()
}

// advanceLocked drives the scheduler until a round has open work or the
// sweep is decided. Rounds fully covered by stored rows (a resumed
// journal) observe and roll forward immediately; freshly decided
// retirements synthesize their skip rows on the spot.
func (c *Coordinator) advanceLocked() {
	for c.schedErr == nil && c.count[statePending]+c.count[stateLeased] == 0 {
		round, err := c.sched.NextRound()
		if err != nil {
			c.schedErr = err
			return
		}
		for _, sk := range c.sched.TakeRetired() {
			if err := c.retireLocked(sk); err != nil {
				c.schedErr = err
				return
			}
		}
		if len(round) == 0 {
			return
		}
		for _, name := range round {
			switch rec := c.records[name]; rec.state {
			case stateDone:
				if err := c.sched.Observe(name, c.rowVerdictLocked(name, rec.row)); err != nil {
					c.schedErr = err
					return
				}
			case stateHeld:
				c.move(rec, statePending)
				c.deque = append(c.deque, rec)
			}
		}
	}
}

// retireLocked synthesizes one retired scenario's rows: skip-error
// comparisons for every comparison it was the suspect of (goldens are
// extras by SuiteSpec.Scheduler, so only the suspect side can be
// skipped), then the skip scenario row — journaled in that order, the
// same comparisons-before-row invariant completions keep. A scenario
// already done (a resumed journal re-deriving the same retirement) is
// left untouched.
func (c *Coordinator) retireLocked(sk sched.Skip) error {
	rec, ok := c.records[sk.Name]
	if !ok {
		return fmt.Errorf("retired scenario %q is not in the suite", sk.Name)
	}
	if rec.state == stateDone {
		return nil
	}
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = c.Suite.Name
	for _, cmp := range c.Suite.Compare {
		if cmp.Suspect != sk.Name {
			continue
		}
		key := offramps.CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)
		if _, dup := c.compares[key]; dup {
			continue
		}
		buf.Reset()
		if err := sink.EmitCompare(offramps.CompareResult{
			Golden:     cmp.Golden,
			Suspect:    cmp.Suspect,
			GoldenTap:  cmp.GoldenTap,
			SuspectTap: cmp.SuspectTap,
			Error:      offramps.SkipMessage(sk.Reason),
		}); err != nil {
			return err
		}
		raw := json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		p, err := offramps.ParseStreamRow(raw)
		if err != nil {
			return err
		}
		if err := c.journalRow(raw); err != nil {
			return err
		}
		c.compares[key] = p.Report
	}
	buf.Reset()
	if err := sink.Emit(offramps.ScenarioResult{
		Name: sk.Name,
		Seed: rec.seed,
		Err:  errors.New(offramps.SkipMessage(sk.Reason)),
	}); err != nil {
		return err
	}
	raw := json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	p, err := offramps.ParseStreamRow(raw)
	if err != nil {
		return err
	}
	if err := c.journalRow(raw); err != nil {
		return err
	}
	if err := c.commitLocked(); err != nil {
		return err
	}
	rec.row = p.Report
	c.move(rec, stateDone)
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "[%d/%d] %s — %s\n", c.count[stateDone], len(c.records), sk.Name, offramps.SkipMessage(sk.Reason))
	}
	return nil
}

// rowVerdictLocked applies offramps.RowVerdict to a stored scenario
// row, with the scenario's first stored comparison (in spec order) as
// its first executed comparison.
func (c *Coordinator) rowVerdictLocked(name string, raw json.RawMessage) sched.Verdict {
	var first json.RawMessage
	for _, cmp := range c.Suite.Compare {
		if cmp.Suspect != name {
			continue
		}
		if craw, ok := c.compares[offramps.CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)]; ok {
			first = craw
			break
		}
	}
	return offramps.RowVerdict(raw, first)
}

// strikeLocked ends rec's live lease with a strike and reports whether
// the strike quarantined it. A record that survives is pending again;
// the caller puts it in the deque.
func (c *Coordinator) strikeLocked(rec *record, reason string) bool {
	c.endLeaseLocked(rec)
	rec.strikes++
	rec.reason = reason
	if c.maxStrikes <= 0 || rec.strikes < c.maxStrikes {
		c.move(rec, statePending)
		return false
	}
	c.move(rec, stateQuarantined)
	c.observeLocked(rec.name, sched.Errored)
	c.settleLocked()
	return true
}

// reapLocked expires overdue leases: each expiry is a strike, and the
// scenario returns to the deque front — in lease-grant order, so
// recovery is deterministic under the map's iteration randomness — or
// into quarantine once it has burned MaxStrikes leases.
func (c *Coordinator) reapLocked(now time.Time) {
	var expired []*record
	for _, rec := range c.tokens {
		if now.After(rec.lease.deadline) {
			expired = append(expired, rec)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].lease.seq < expired[j].lease.seq })
	var front []*record
	for _, rec := range expired {
		if !c.strikeLocked(rec, fmt.Sprintf("lease %s (worker %s) expired without completing", rec.lease.token, rec.lease.worker)) {
			front = append(front, rec)
		}
	}
	if len(front) > 0 {
		c.deque = append(front, c.deque...)
	}
}

// lease grants the next pending scenario to worker, or reports the
// sweep's state (wait: all in flight or between rounds; done: all done
// or quarantined; drain: the coordinator is shutting down).
func (c *Coordinator) lease(worker string) LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	c.reapLocked(now)
	if c.draining {
		return LeaseReply{Status: StatusDrain}
	}
	var rec *record
	for rec == nil && len(c.deque) > 0 {
		if c.deque[0].state == statePending {
			rec = c.deque[0]
		}
		c.deque = c.deque[1:]
	}
	if rec == nil {
		if c.count[stateDone]+c.count[stateQuarantined] == len(c.records) {
			return LeaseReply{Status: StatusDone}
		}
		return LeaseReply{Status: StatusWait}
	}
	c.seq++
	rec.lease = lease{token: fmt.Sprintf("L%d", c.seq), worker: worker, seq: c.seq, deadline: now.Add(c.ttl)}
	c.tokens[rec.lease.token] = rec
	c.move(rec, stateLeased)
	return LeaseReply{Status: StatusLease, Scenario: rec.name, Token: rec.lease.token, TTLMillis: c.ttl.Milliseconds()}
}

// heartbeat extends a live lease's deadline. False means the lease
// expired (or never existed) — the caller should abandon the scenario.
// Heartbeats keep working while draining, so in-flight scenarios finish
// under a coordinator that is shutting down gracefully.
func (c *Coordinator) heartbeat(token string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	rec, ok := c.tokens[token]
	if !ok || now.After(rec.lease.deadline) {
		return false
	}
	rec.lease.deadline = now.Add(c.ttl)
	return true
}

// fail releases a lease whose scenario could not be run: a strike is
// recorded and the scenario requeued at the back (other work proceeds
// ahead of a suspect scenario), or quarantined once it has exhausted
// MaxStrikes leases. Only the scenario's live lease can strike it — a
// failure report racing its own expiry counts once, not twice.
func (c *Coordinator) fail(token, scenario, reason string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[scenario]
	switch {
	case !ok:
		return FailUnknown
	case rec.state == stateDone:
		return FailDuplicate
	case rec.state == stateQuarantined:
		return FailQuarantined
	case rec.state != stateLeased || rec.lease.token != token:
		// The lease already expired (its strike was the reap's) or was
		// superseded; acknowledge without double-striking.
		return FailAccepted
	}
	if reason == "" {
		reason = "worker reported a run failure"
	}
	if c.strikeLocked(rec, reason) {
		return FailQuarantined
	}
	c.deque = append(c.deque, rec)
	return FailAccepted
}

// complete records a finished scenario's rows. The token is advisory:
// a completion under an expired or superseded lease is accepted as long
// as the scenario is not done yet (determinism makes every completion
// of a scenario bit-identical, so first wins and the rest are
// duplicates), and it even rescues a quarantined scenario — real rows
// beat a synthesized failure. The rows are validated against the suite
// and journaled (comparisons first: the resume invariant is "scenario
// row present ⇒ its comparisons present") before the scenario is done;
// an error leaves the record, and its live lease, as they were.
func (c *Coordinator) complete(req CompleteRequest) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.records[req.Scenario]
	if !ok {
		return CompleteUnknown, nil
	}
	if rec.state == stateDone {
		return CompleteDuplicate, nil
	}
	row, compares, err := c.validate(rec, req)
	if err != nil {
		return "", err
	}
	for i, p := range compares {
		if _, dup := c.compares[p.Key]; dup {
			continue // a re-run's repeat of an already-journaled comparison
		}
		if err := c.journalRow(req.Compares[i]); err != nil {
			return "", err
		}
		c.compares[p.Key] = p.Report
	}
	if err := c.journalRow(req.Row); err != nil {
		return "", err
	}
	if err := c.commitLocked(); err != nil {
		return "", err
	}
	from := rec.state
	c.endLeaseLocked(rec)
	rec.row = row.Report
	c.move(rec, stateDone)
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "[%d/%d] %s\n", c.count[stateDone], len(c.records), rec.name)
	}
	if from == statePending || from == stateLeased {
		c.observeLocked(rec.name, c.rowVerdictLocked(rec.name, row.Report))
	}
	c.settleLocked()
	return CompleteAccepted, nil
}

// validate parses a completion's rows and checks them against the
// suite: the scenario row must name the scenario, carry the suite's
// label and the scenario's effective seed, and every comparison must be
// one the suite draws with this scenario as its suspect.
func (c *Coordinator) validate(rec *record, req CompleteRequest) (*offramps.StreamRow, []*offramps.StreamRow, error) {
	row, err := offramps.ParseStreamRow(req.Row)
	if err != nil {
		return nil, nil, err
	}
	if row.Name != req.Scenario {
		return nil, nil, fmt.Errorf("row names scenario %q, lease was for %q", row.Name, req.Scenario)
	}
	if row.Suite != c.Suite.Name {
		return nil, nil, fmt.Errorf("row is labelled suite %q, not %q", row.Suite, c.Suite.Name)
	}
	if row.Seed != rec.seed {
		return nil, nil, fmt.Errorf("scenario %q ran seed %d, want %d (worker on a different base seed?)", req.Scenario, row.Seed, rec.seed)
	}
	compares := make([]*offramps.StreamRow, len(req.Compares))
	for i, raw := range req.Compares {
		p, err := offramps.ParseStreamRow(raw)
		if err != nil {
			return nil, nil, err
		}
		if p.Key == "" {
			return nil, nil, fmt.Errorf("scenario row %q sent among the comparisons", p.Name)
		}
		if c.suspects[p.Key] != req.Scenario {
			return nil, nil, fmt.Errorf("comparison %q is not one scenario %q draws", p.Key, req.Scenario)
		}
		compares[i] = p
	}
	return row, compares, nil
}

// journalRow appends one raw JSONL line.
func (c *Coordinator) journalRow(raw json.RawMessage) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Append(raw)
}

// commitLocked ends one journaled unit (fsync on the configured cadence).
func (c *Coordinator) commitLocked() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Commit()
}

// SweepStats reports the scheduler's statistics.
func (c *Coordinator) SweepStats() offramps.SweepStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return offramps.SweepStats{Stats: c.sched.Stats()}
}

// Resumed reports how many scenarios the journal already covered.
func (c *Coordinator) Resumed() int { return c.resumed }

// Compacted reports how many dead journal lines the resume compaction
// dropped (0 when the journal was clean).
func (c *Coordinator) Compacted() int { return c.compacted }

// Counts snapshots the per-state scenario counts; done counts stored
// rows.
func (c *Coordinator) Counts() (pending, leased, done, quarantined, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count[statePending], c.count[stateLeased], c.count[stateDone], c.count[stateQuarantined], len(c.records)
}

// Quarantined snapshots the parked scenarios, sorted by name.
func (c *Coordinator) Quarantined() []QuarantinedScenario {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantinedLocked()
}

func (c *Coordinator) quarantinedLocked() []QuarantinedScenario {
	var out []QuarantinedScenario
	for _, rec := range c.records {
		if rec.state == stateQuarantined {
			out = append(out, QuarantinedScenario{Scenario: rec.name, Strikes: rec.strikes, Reason: rec.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario < out[j].Scenario })
	return out
}

// Done is closed once every scenario's rows are recorded or the
// scenario is quarantined, so Report can stitch as soon as it fires.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Drain stops dealing leases (workers see "drain" and exit) while
// in-flight heartbeats and completions keep working. Pair with Close
// once Counts reports no leases outstanding.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
}

// Handler returns the coordinator's HTTP API. It holds no state of its
// own — kill the process, restart it, and the journal rebuilds the
// sweep.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathSuite, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.suiteJSON)
	})
	mux.HandleFunc("POST "+PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if decode(w, r, &req) {
			reply(w, c.lease(req.Worker))
		}
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if decode(w, r, &req) {
			reply(w, HeartbeatReply{OK: c.heartbeat(req.Token)})
		}
	})
	mux.HandleFunc("POST "+PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Scenario == "" || len(req.Row) == 0 {
			http.Error(w, "completion needs a scenario and its row", http.StatusBadRequest)
			return
		}
		status, err := c.complete(req)
		if err != nil {
			// The lease stays live: the worker retries, then reports
			// the failure, which strikes it.
			http.Error(w, fmt.Sprintf("recording completion: %v", err), http.StatusInternalServerError)
			return
		}
		reply(w, CompleteReply{Status: status})
	})
	mux.HandleFunc("POST "+PathFail, func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Scenario == "" {
			http.Error(w, "failure report needs a scenario", http.StatusBadRequest)
			return
		}
		reply(w, FailReply{Status: c.fail(req.Token, req.Scenario, req.Error)})
	})
	mux.HandleFunc("GET "+PathStatus, func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		st := StatusReply{
			Suite:       c.Suite.Name,
			Pending:     c.count[statePending],
			Leased:      c.count[stateLeased],
			Done:        c.count[stateDone],
			Total:       len(c.records),
			Draining:    c.draining,
			Quarantined: c.quarantinedLocked(),
		}
		c.mu.Unlock()
		reply(w, st)
	})
	return mux
}

// decode reads a bounded JSON body; a false return means the response
// is already written.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, dst)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Report stitches the collected rows into the canonical suite report —
// byte-identical to an uninterrupted single-process run. Quarantined
// scenarios appear as error rows (and their comparisons as error
// comparisons), so a degraded sweep still reports — loudly — instead of
// refusing to.
func (c *Coordinator) Report() (*offramps.RawSuiteReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.schedErr != nil {
		return nil, fmt.Errorf("farm: progressive schedule: %w", c.schedErr)
	}
	scenarios := make(map[string]json.RawMessage, len(c.records))
	parked := make(map[string]bool)
	for _, rec := range c.records {
		switch rec.state {
		case stateDone:
			scenarios[rec.name] = rec.row
		case stateQuarantined:
			row, err := json.Marshal(offramps.ScenarioResult{
				Name: rec.name,
				Seed: rec.seed,
				Err:  fmt.Errorf("farm: quarantined after %d failed leases (last: %s)", rec.strikes, rec.reason),
			})
			if err != nil {
				return nil, err
			}
			scenarios[rec.name] = row
			parked[rec.name] = true
		}
	}
	if len(parked) == 0 {
		return offramps.StitchReport(c.Suite, scenarios, c.compares)
	}
	compares := make(map[string]json.RawMessage, len(c.compares))
	for k, v := range c.compares {
		compares[k] = v
	}
	for _, cmp := range c.Suite.Compare {
		key := offramps.CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)
		if _, ok := compares[key]; ok || (!parked[cmp.Golden] && !parked[cmp.Suspect]) {
			continue
		}
		row, err := json.Marshal(offramps.CompareResult{
			Golden:     cmp.Golden,
			Suspect:    cmp.Suspect,
			GoldenTap:  cmp.GoldenTap,
			SuspectTap: cmp.SuspectTap,
			Error:      "farm: scenario quarantined; comparison never ran",
		})
		if err != nil {
			return nil, err
		}
		compares[key] = row
	}
	return offramps.StitchReport(c.Suite, scenarios, compares)
}

// Close flushes and releases the journal. It takes the coordinator's
// lock, so a completion mid-record finishes before the file goes away.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	j := c.journal
	c.journal = nil
	return j.Close()
}
