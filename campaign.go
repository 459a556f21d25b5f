package offramps

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"offramps/internal/detect"
	"offramps/internal/firmware"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/sim"
)

// Scenario is one cell of a campaign's (program × trojan × seed ×
// detector) grid: a complete, self-contained description of one simulated
// print. Mutable collaborators (trojans, detectors) are specified as
// factories so a scenario can be run any number of times — and on any
// worker — with identical results.
type Scenario struct {
	// Name labels the scenario in results ("T3", "drift-2", ...).
	Name string
	// Program is the G-code to print.
	Program gcode.Program
	// Seed is the time-noise seed, used verbatim — unless the campaign
	// sets a non-zero BaseSeed, in which case a zero Seed is derived
	// deterministically from BaseSeed and the scenario's position.
	Seed uint64
	// Trojan, when non-nil, builds a fresh trojan for the run; it receives
	// the scenario's effective seed so randomized trojans stay
	// reproducible.
	Trojan func(seed uint64) fpga.Trojan
	// Detector, when non-nil, builds a fresh live detector attached to the
	// run under Policy.
	Detector func() (detect.Detector, error)
	// Policy applies to the Detector (FlagOnly or AbortOnTrip).
	Policy TripPolicy
	// DetectorBind places the Detector's tap binding; the zero value,
	// BindPrimary, feeds it from the board's primary tap — the paper's
	// rig and the behaviour of every pre-binding scenario.
	DetectorBind TapBinding
	// Options are extra testbed construction options (settle time, plant
	// config, ...), applied after the campaign's own seed/trojan options.
	Options []Option
	// RunOptions are extra run options, applied after the campaign's own
	// limit/detector options.
	RunOptions []RunOption
}

// ScenarioResult pairs one scenario with its outcome.
type ScenarioResult struct {
	// Name and Seed echo the scenario (Seed is the effective seed).
	Name string
	Seed uint64
	// Result is the run's outcome (nil when Err is set).
	Result *Result
	// Err is the scenario's failure, if any. One scenario failing does not
	// stop the rest of the campaign.
	Err error
}

// Campaign fans scenarios across a worker pool. Each scenario gets its
// own testbed, deterministic seeding, and an independently constructed
// trojan and detector, so results are bit-identical regardless of worker
// count or scheduling order — the concurrency is free speedup, not a
// source of nondeterminism.
type Campaign struct {
	// Workers is the pool size; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Budget is the per-scenario simulated-time limit; 0 means
	// DefaultRunBudget.
	Budget sim.Time
	// BaseSeed, when non-zero, seeds scenarios whose own Seed is zero:
	// scenario i gets BaseSeed + i·31 + 1. When BaseSeed is zero, every
	// scenario's Seed is used verbatim (including zero), so experiment
	// suites that pair same-seed runs stay paired for any caller seed.
	BaseSeed uint64
	// Cache, when non-nil, memoizes golden (trojan-free, unmodified)
	// scenario results by (program hash, seed, budget) so repeated golden
	// prints across campaigns simulate exactly once. Determinism makes a
	// hit bit-identical to a fresh run. Scenarios with trojans, detectors,
	// or any extra options are never cached.
	Cache *GoldenCache
	// Sinks receive each ScenarioResult as it completes (completion
	// order, Emit calls serialized across workers), so huge campaigns
	// stream instead of buffering. A sink error does not stop the
	// campaign; the first one is returned (as a *SinkError) after every
	// scenario finished. The campaign never closes a sink — one sink
	// commonly spans several Run calls (a suite's waves, a multi-suite
	// sweep), so the owner must call Close after the last campaign or
	// buffered sinks (e.g. CSVSink) lose their tail.
	Sinks []ResultSink
	// CaptureMode selects full-trace or fingerprint-only capture for
	// every run (default CaptureFull). In fingerprint mode no scenario
	// materializes a Recording, and same-(program, seed, budget)
	// scenarios that differ only in their FlagOnly detector are fused
	// into one simulation observing all the detectors at once — the N-
	// detectors-per-print sweep costs one print instead of N.
	CaptureMode CaptureMode
}

// planEntry lazily compiles one program's shared move plan. Compilation
// failures are swallowed — the member runs fall back to the live
// interpreter, which accepts anything the planner would reject.
type planEntry struct {
	once sync.Once
	c    *firmware.Compiled
}

func (pe *planEntry) compiled(prog gcode.Program) *firmware.Compiled {
	pe.once.Do(func() { pe.c, _ = firmware.Compile(prog, firmware.DefaultConfig()) })
	return pe.c
}

// planEligible reports whether a scenario may run from a plan compiled
// under the default firmware configuration: any extra Options could
// carry WithFirmwareConfig, whose effect on planning is opaque, so only
// option-free scenarios share plans. Seed and time noise never affect
// planning (see firmware.Compile).
func planEligible(s *Scenario) bool { return len(s.Options) == 0 }

// fusible reports whether a scenario can join a fused fingerprint-mode
// run: the simulation must be fully determined by (program, seed,
// budget) — no trojans or opaque options — and the detector must be a
// passive FlagOnly observer of the primary/Arduino feed, so attaching N
// of them to one print is observationally identical to N separate
// prints.
func fusible(s *Scenario) bool {
	return s.Trojan == nil &&
		len(s.Options) == 0 && len(s.RunOptions) == 0 &&
		s.Detector != nil && s.Policy == FlagOnly &&
		(s.DetectorBind == BindPrimary || s.DetectorBind == BindArduino)
}

// fuseKey identifies one shared simulation of a fused unit.
type fuseKey struct {
	program [sha256.Size]byte
	seed    uint64
	bind    TapBinding
}

// Run executes every scenario and returns the results in scenario order.
// Per-scenario failures land in the corresponding ScenarioResult.Err; Run
// itself errors only when the context is cancelled (already-finished
// results are still returned).
//
// Same-program scenarios share one compiled move plan (parse/plan cost
// is paid once per distinct program), every worker reuses a pooled
// testbed core across its runs, and in fingerprint mode scenarios that
// differ only in their detector are fused into shared simulations. All
// three are pure mechanics: results are bit-identical to the naive
// one-testbed-per-scenario execution.
func (c Campaign) Run(ctx context.Context, scenarios []Scenario) ([]ScenarioResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}

	budget := c.Budget
	if budget == 0 {
		budget = DefaultRunBudget
	}

	// Precompute effective seeds, shared-plan groups, and — in
	// fingerprint mode — fusion units. A unit is one worker task: a
	// single scenario, or several fused onto one simulation.
	effSeed := make([]uint64, len(scenarios))
	plans := make(map[[sha256.Size]byte]*planEntry)
	planOf := make([]*planEntry, len(scenarios))
	hashes := make([][sha256.Size]byte, len(scenarios))
	hashed := make([]bool, len(scenarios))
	hashOf := func(i int) [sha256.Size]byte {
		if !hashed[i] {
			hashes[i] = hashProgram(scenarios[i].Program)
			hashed[i] = true
		}
		return hashes[i]
	}
	for i := range scenarios {
		effSeed[i] = scenarios[i].Seed
		if effSeed[i] == 0 && c.BaseSeed != 0 {
			effSeed[i] = c.BaseSeed + uint64(i)*31 + 1
		}
		if planEligible(&scenarios[i]) {
			h := hashOf(i)
			pe, ok := plans[h]
			if !ok {
				pe = &planEntry{}
				plans[h] = pe
			}
			planOf[i] = pe
		}
	}
	var units [][]int
	if c.CaptureMode == CaptureFingerprint {
		fused := make(map[fuseKey]int) // key → index into units
		for i := range scenarios {
			if !fusible(&scenarios[i]) {
				units = append(units, []int{i})
				continue
			}
			key := fuseKey{program: hashOf(i), seed: effSeed[i], bind: scenarios[i].DetectorBind}
			if u, ok := fused[key]; ok {
				units[u] = append(units[u], i)
			} else {
				fused[key] = len(units)
				units = append(units, []int{i})
			}
		}
	} else {
		units = make([][]int, len(scenarios))
		for i := range scenarios {
			units[i] = []int{i}
		}
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	results := make([]ScenarioResult, len(scenarios))
	var sinkMu sync.Mutex
	var sinkErr error
	emit := func(r ScenarioResult) {
		if len(c.Sinks) == 0 {
			return
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, s := range c.Sinks {
			if err := s.Emit(r); err != nil && sinkErr == nil {
				sinkErr = &SinkError{Err: err}
			}
		}
	}
	unitCh := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			core := acquireCore()
			defer releaseCore(core)
			for unit := range unitCh {
				if len(unit) == 1 {
					i := unit[0]
					results[i] = c.runScenario(ctx, scenarios[i], effSeed[i], budget, planOf[i], core)
					emit(results[i])
					continue
				}
				for i, r := range c.runFused(ctx, scenarios, unit, effSeed[unit[0]], budget, planOf[unit[0]], core) {
					results[unit[i]] = r
					emit(r)
				}
			}
		}()
	}
feed:
	for _, unit := range units {
		// Checked before each handoff: a blocked select chooses randomly
		// when both a worker and Done are ready, so without this guard a
		// cancelled campaign could keep feeding the pool.
		if ctx.Err() != nil {
			break
		}
		select {
		case unitCh <- unit:
		case <-ctx.Done():
			break feed
		}
	}
	close(unitCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A sink failure observed before the cancellation must still
		// surface — callers distinguish *SinkError from a run failure.
		return results, errors.Join(fmt.Errorf("offramps: campaign cancelled: %w", err), sinkErr)
	}
	return results, sinkErr
}

// runScenario builds and runs one scenario end to end, consulting the
// golden cache for memoizable scenarios.
func (c Campaign) runScenario(ctx context.Context, s Scenario, seed uint64, budget sim.Time, plan *planEntry, core *TestbedCore) ScenarioResult {
	out := ScenarioResult{Name: s.Name, Seed: seed}

	var res *Result
	var err error
	if c.Cache != nil && s.goldenCacheable() {
		key := goldenKey{program: hashProgram(s.Program), seed: seed, budget: budget, mode: c.CaptureMode}
		res, err = c.Cache.run(key, func() (*Result, error) {
			return c.runFresh(ctx, s, seed, budget, plan, core)
		})
	} else {
		res, err = c.runFresh(ctx, s, seed, budget, plan, core)
	}
	if err != nil {
		out.Err = fmt.Errorf("offramps: scenario %q: %w", s.Name, err)
		return out
	}
	out.Result = res
	return out
}

// runFresh builds a testbed for the scenario and simulates it.
func (c Campaign) runFresh(ctx context.Context, s Scenario, seed uint64, budget sim.Time, plan *planEntry, core *TestbedCore) (*Result, error) {
	opts := []Option{WithSeed(seed)}
	if core != nil {
		opts = append(opts, WithCore(core))
	}
	if s.Trojan != nil {
		tr := s.Trojan(seed)
		if tr == nil {
			return nil, fmt.Errorf("trojan factory returned nil")
		}
		opts = append(opts, WithTrojan(tr))
	}
	opts = append(opts, s.Options...)
	tb, err := NewTestbed(opts...)
	if err != nil {
		return nil, err
	}

	ropts := []RunOption{WithLimit(budget), WithCaptureMode(c.CaptureMode)}
	if plan != nil {
		if compiled := plan.compiled(s.Program); compiled != nil {
			ropts = append(ropts, withCompiled(compiled))
		}
	}
	if s.Detector != nil {
		d, err := s.Detector()
		if err != nil {
			return nil, fmt.Errorf("detector: %w", err)
		}
		ropts = append(ropts, WithDetectorAt(s.DetectorBind, d, s.Policy))
	}
	ropts = append(ropts, s.RunOptions...)

	return tb.Run(ctx, s.Program, ropts...)
}

// runFused executes one fused unit: a single simulation of the unit's
// shared (program, seed, budget) observed by every member's detector at
// once. Member k's result is the shared outcome narrowed to its own
// detector's report. Fusion is only attempted for fusible scenarios
// (passive FlagOnly detectors on the same feed), so the stream each
// detector observes — and hence its verdict — is identical to a solo
// run; if the fused simulation fails for any reason, every member falls
// back to an independent solo run so error semantics stay per-scenario.
func (c Campaign) runFused(ctx context.Context, scenarios []Scenario, unit []int, seed uint64, budget sim.Time, plan *planEntry, core *TestbedCore) []ScenarioResult {
	out := make([]ScenarioResult, len(unit))
	solo := func() []ScenarioResult {
		for k, i := range unit {
			out[k] = c.runScenario(ctx, scenarios[i], seed, budget, plan, core)
		}
		return out
	}

	// Build every member's detector first: a factory failure is that
	// member's own error and must not poison the shared run.
	detectors := make([]detect.Detector, len(unit))
	attached := make([]int, 0, len(unit)) // unit positions with a live detector
	for k, i := range unit {
		s := &scenarios[i]
		out[k] = ScenarioResult{Name: s.Name, Seed: seed}
		d, err := s.Detector()
		if err != nil {
			out[k].Err = fmt.Errorf("offramps: scenario %q: detector: %w", s.Name, err)
			continue
		}
		detectors[k] = d
		attached = append(attached, k)
	}
	if len(attached) == 0 {
		return out
	}

	opts := []Option{WithSeed(seed)}
	if core != nil {
		opts = append(opts, WithCore(core))
	}
	tb, err := NewTestbed(opts...)
	if err != nil {
		return solo()
	}
	ropts := []RunOption{WithLimit(budget), WithCaptureMode(CaptureFingerprint)}
	if plan != nil {
		if compiled := plan.compiled(scenarios[unit[0]].Program); compiled != nil {
			ropts = append(ropts, withCompiled(compiled))
		}
	}
	for _, k := range attached {
		i := unit[k]
		ropts = append(ropts, WithDetectorAt(scenarios[i].DetectorBind, detectors[k], scenarios[i].Policy))
	}
	res, err := tb.Run(ctx, scenarios[unit[0]].Program, ropts...)
	if err != nil {
		return solo()
	}
	for slot, k := range attached {
		rep := res.Detections[slot]
		narrowed := *res
		narrowed.Detections = []*detect.Report{rep}
		narrowed.TrojanLikely = rep.TrojanLikely
		out[k].Result = &narrowed
	}
	return out
}

// firstScenarioErr returns the first per-scenario failure, or nil.
func firstScenarioErr(results []ScenarioResult) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
