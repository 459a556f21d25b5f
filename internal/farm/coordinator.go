package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
	"offramps/internal/sched"
)

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
	// Progressive, when non-nil, sets the layout and knobs of the
	// scheduler that feeds the lease queue: scenarios are dealt in rounds
	// (coverage, then boundary-first refinement) and retired scenarios
	// become journaled skip rows. When nil, the coordinator schedules
	// offramps.PlainLayout: one round of every scenario in suite order,
	// nothing skipped. The queue is reordered, never re-keyed, so
	// journals, resume, quarantine, and stitching work unchanged — but a
	// resumed sweep must be given the same Progressive settings it
	// started with, or the re-derived schedule will not match the
	// journal.
	Progressive *Progressive
}

// Progressive configures scheduler-fed execution: the grid layout
// (from offramps.GridSpec.ExpandLayout) and the budget / early-stop
// knobs.
type Progressive struct {
	Layout *sched.Grid
	Sched  sched.Config
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

// Coordinator owns one sweep: the expanded suite, the lease queue over
// its scenario names, the collected raw rows, and (optionally) a JSONL
// journal that makes the sweep resumable. It is deliberately
// simulation-free — all printing happens in workers — so a coordinator
// for a million-scenario sweep is a queue of names and a file of rows.
//
// Resumability: every accepted completion appends its rows to the
// journal (comparisons first, then the scenario row) before the worker
// sees the ack, fsynced on the configured cadence. A restarted
// coordinator reads the journal back through the resume index —
// tolerating the torn trailing line a crash leaves — compacts the file
// (atomically, temp-file + rename) if the crash left a torn tail or
// duplicate rows, and enqueues only the complement, so the sweep
// continues instead of restarting. The journal is the same row format
// `suite -jsonl` writes, so `suite -merge` can also stitch it directly.
//
// Degradation: a scenario failed or abandoned by MaxStrikes distinct
// leases is quarantined — parked, surfaced in /v1/status, and reported
// as an error row in the stitched report — instead of being re-dealt
// forever. Drain mode (SIGTERM in cmd/coordinator) stops dealing work
// while honouring in-flight heartbeats and completions, then flushes
// and closes the journal so the sweep resumes cleanly elsewhere.
type Coordinator struct {
	Suite *offramps.SuiteSpec
	// Progress, when non-nil, receives one line per accepted completion.
	Progress io.Writer

	suiteJSON []byte
	queue     *Queue
	journal   *Journal

	mu        sync.Mutex
	scenarios map[string]json.RawMessage
	compares  map[string]json.RawMessage
	resumed   int
	accepted  int
	compacted int

	// Schedule state (all under mu). The scheduler itself is
	// single-threaded — accept, quarantine, and construction-time resume
	// all advance it under mu.
	sched       *sched.Scheduler
	outstanding map[string]bool
	schedErr    error

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
		Suite:     suite,
		suiteJSON: suiteJSON,
		queue:     NewQueue(suite.ScenarioNames(), cfg.ttl()),
		scenarios: make(map[string]json.RawMessage),
		compares:  make(map[string]json.RawMessage),
		done:      make(chan struct{}),
	}
	clock := cfg.clock()
	c.queue.Now = clock.Now
	c.queue.MaxStrikes = cfg.MaxStrikes
	c.queue.OnQuarantine = c.onQuarantine
	layout, schedCfg := offramps.PlainLayout(suite), sched.Config{}
	if p := cfg.Progressive; p != nil {
		layout, schedCfg = p.Layout, p.Sched
	}
	if err := offramps.ValidateProgressive(suite, layout); err != nil {
		return nil, err
	}
	if c.sched, err = sched.New(layout, schedCfg); err != nil {
		return nil, err
	}
	// The queue starts with nothing pending; rounds are Released as
	// the scheduler deals them.
	c.outstanding = make(map[string]bool)

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
				c.scenarios[name] = raw
				c.queue.MarkDone(name)
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
	// work lands in the queue.
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

// onQuarantine reacts to scenarios the queue parked: the schedule
// observes them as Errored so it advances past them (a completion later
// rescuing the scenario is still accepted and journaled — only the
// scheduling signal was pessimistic), then checks for settlement.
func (c *Coordinator) onQuarantine() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, q := range c.queue.Quarantined() {
		if !c.outstanding[q.Scenario] {
			continue
		}
		delete(c.outstanding, q.Scenario)
		if err := c.sched.Observe(q.Scenario, sched.Errored); err != nil && c.schedErr == nil {
			c.schedErr = err
		}
	}
	if len(c.outstanding) == 0 {
		c.advanceLocked()
	}
	c.settleLocked()
}

// settleLocked closes Done once every suite scenario has a stored row
// or is quarantined. It counts stored rows rather than asking the
// queue, because the queue marks a completion done before accept
// stores its rows: a concurrent last completion would otherwise close
// Done while an earlier one is still being recorded, or is about to be
// reopened after recording failed. Callers hold c.mu.
func (c *Coordinator) settleLocked() {
	missing := len(c.Suite.Scenarios) - len(c.scenarios)
	for _, q := range c.queue.Quarantined() {
		if _, ok := c.scenarios[q.Scenario]; !ok {
			missing--
		}
	}
	if missing == 0 {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// advanceLocked drives the scheduler until a round has open work in the
// queue or the sweep is decided. Rounds fully covered by stored rows
// (a resumed journal) observe and roll forward immediately; freshly
// decided retirements synthesize their skip rows on the spot. Callers
// hold c.mu.
func (c *Coordinator) advanceLocked() {
	if c.schedErr != nil {
		return
	}
	for len(c.outstanding) == 0 {
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
		var release []string
		for _, name := range round {
			if raw, ok := c.scenarios[name]; ok {
				if err := c.sched.Observe(name, c.rowVerdictLocked(name, raw)); err != nil {
					c.schedErr = err
					return
				}
				continue
			}
			c.outstanding[name] = true
			release = append(release, name)
		}
		if len(release) > 0 {
			c.queue.Release(release...)
			return
		}
	}
}

// retireLocked synthesizes one retired scenario's rows: skip-error
// comparisons for every comparison it was the suspect of (goldens are
// extras by ValidateProgressive, so only the suspect side can be
// skipped), then the skip scenario row — journaled in that order, the
// same comparisons-before-row invariant accept keeps. Already-stored
// rows (a resumed journal re-deriving the same retirement) are left
// untouched. Callers hold c.mu.
func (c *Coordinator) retireLocked(sk sched.Skip) error {
	if _, ok := c.scenarios[sk.Name]; ok {
		c.queue.MarkDone(sk.Name)
		return nil
	}
	sc, ok := c.Suite.FindScenario(sk.Name)
	if !ok {
		return fmt.Errorf("retired scenario %q is not in the suite", sk.Name)
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
		Seed: sc.EffectiveSeed(c.Suite.BaseSeed),
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
	if c.journal != nil {
		if err := c.journal.Commit(); err != nil {
			return err
		}
	}
	c.scenarios[sk.Name] = p.Report
	c.queue.MarkDone(sk.Name)
	if c.Progress != nil {
		_, _, done, _, total := c.queue.Counts()
		fmt.Fprintf(c.Progress, "[%d/%d] %s — %s\n", done, total, sk.Name, offramps.SkipMessage(sk.Reason))
	}
	return nil
}

// rowVerdictLocked applies offramps.RowVerdict to a stored scenario
// row, with the scenario's first stored comparison (in spec order) as
// its first executed comparison. Callers hold c.mu.
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

// Counts snapshots the queue.
func (c *Coordinator) Counts() (pending, leased, done, quarantined, total int) {
	return c.queue.Counts()
}

// Quarantined snapshots the parked scenarios.
func (c *Coordinator) Quarantined() []QuarantinedScenario { return c.queue.Quarantined() }

// Done is closed once every scenario's rows are recorded or the
// scenario is quarantined, so Report can stitch as soon as it fires.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Drain stops dealing leases (workers see "drain" and exit) while
// in-flight heartbeats and completions keep working. Pair with Close
// once Counts reports no leases outstanding.
func (c *Coordinator) Drain() { c.queue.Drain() }

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	s := &Server{
		Suite:      c.suiteJSON,
		SuiteName:  c.Suite.Name,
		Queue:      c.queue,
		OnComplete: c.accept,
	}
	return s.Handler()
}

// accept records one first-accepted completion: validate the rows
// against the suite, journal them (comparisons first — the resume
// invariant is "scenario row present ⇒ its comparisons present"), and
// store them for the final stitch. An error here un-acks the completion
// (the server reopens the scenario).
func (c *Coordinator) accept(scenario string, compares []json.RawMessage, row json.RawMessage) error {
	sc, ok := c.Suite.FindScenario(scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	parsed, err := offramps.ParseStreamRow(row)
	if err != nil {
		return err
	}
	if parsed.Name != scenario {
		return fmt.Errorf("row names scenario %q, lease was for %q", parsed.Name, scenario)
	}
	if parsed.Suite != c.Suite.Name {
		return fmt.Errorf("row is labelled suite %q, not %q", parsed.Suite, c.Suite.Name)
	}
	if want := sc.EffectiveSeed(c.Suite.BaseSeed); parsed.Seed != want {
		return fmt.Errorf("scenario %q ran seed %d, want %d (worker on a different base seed?)", scenario, parsed.Seed, want)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, raw := range compares {
		p, err := offramps.ParseStreamRow(raw)
		if err != nil {
			return err
		}
		if p.Key == "" {
			return fmt.Errorf("scenario row %q sent among the comparisons", p.Name)
		}
		if _, dup := c.compares[p.Key]; dup {
			continue // a re-run's repeat of an already-journaled comparison
		}
		if err := c.journalRow(raw); err != nil {
			return err
		}
		c.compares[p.Key] = p.Report
	}
	if err := c.journalRow(row); err != nil {
		return err
	}
	if c.journal != nil {
		if err := c.journal.Commit(); err != nil {
			return err
		}
	}
	c.scenarios[scenario] = parsed.Report
	c.accepted++
	if c.outstanding[scenario] {
		delete(c.outstanding, scenario)
		if err := c.sched.Observe(scenario, c.rowVerdictLocked(scenario, parsed.Report)); err != nil && c.schedErr == nil {
			c.schedErr = err
		}
		if len(c.outstanding) == 0 {
			c.advanceLocked()
		}
	}

	if c.Progress != nil {
		_, _, done, _, total := c.queue.Counts()
		fmt.Fprintf(c.Progress, "[%d/%d] %s\n", done, total, scenario)
	}
	c.settleLocked()
	return nil
}

// journalRow appends one raw JSONL line.
func (c *Coordinator) journalRow(raw json.RawMessage) error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Append(raw)
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
	parked := c.queue.Quarantined()
	if len(parked) == 0 {
		return offramps.StitchReport(c.Suite, c.scenarios, c.compares)
	}

	scenarios := make(map[string]json.RawMessage, len(c.scenarios))
	for k, v := range c.scenarios {
		scenarios[k] = v
	}
	compares := make(map[string]json.RawMessage, len(c.compares))
	for k, v := range c.compares {
		compares[k] = v
	}
	quarantined := make(map[string]bool, len(parked))
	for _, q := range parked {
		quarantined[q.Scenario] = true
		if _, ok := scenarios[q.Scenario]; ok {
			continue
		}
		sc, ok := c.Suite.FindScenario(q.Scenario)
		if !ok {
			return nil, fmt.Errorf("farm: quarantined scenario %q is not in the suite", q.Scenario)
		}
		row, err := json.Marshal(offramps.ScenarioResult{
			Name: q.Scenario,
			Seed: sc.EffectiveSeed(c.Suite.BaseSeed),
			Err:  errors.New(quarantineMessage(q)),
		})
		if err != nil {
			return nil, err
		}
		scenarios[q.Scenario] = row
	}
	for _, cmp := range c.Suite.Compare {
		key := offramps.CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)
		if _, ok := compares[key]; ok {
			continue
		}
		if !quarantined[cmp.Golden] && !quarantined[cmp.Suspect] {
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

// quarantineMessage is the error a parked scenario reports.
func quarantineMessage(q QuarantinedScenario) string {
	return fmt.Sprintf("farm: quarantined after %d failed leases (last: %s)", q.Strikes, q.Reason)
}

// Close flushes and releases the journal. It takes the accept path's
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
