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
	// Seed is the time-noise seed, used verbatim.
	Seed uint64
	// Trojan, when non-nil, builds a fresh trojan for the run; it receives
	// the scenario's seed so randomized trojans stay reproducible.
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
	// Bypass removes the OFFRAMPS board (the jumper rig, Figure 3a): no
	// capture, trojans or detectors.
	Bypass bool
	// Tap places the board's monitoring tap; the zero value is the
	// paper's Arduino-side tap (see WithTapSide).
	Tap fpga.TapSide
	// Settle overrides how long the simulation keeps running after the
	// firmware stops; 0 keeps the testbed default (see WithSettle).
	Settle sim.Time
	// Budget overrides the campaign's simulated-time limit for this
	// scenario; 0 keeps Campaign.Budget.
	Budget sim.Time
}

// ScenarioResult pairs one scenario with its outcome.
type ScenarioResult struct {
	// Name and Seed echo the scenario.
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
	// Budget is the per-scenario simulated-time limit, unless the
	// scenario sets its own; 0 means DefaultRunBudget.
	Budget sim.Time
	// Cache, when non-nil, memoizes golden (trojan-free, detector-free)
	// scenario results by simKey so repeated golden prints across
	// campaigns simulate exactly once. Determinism makes a hit
	// bit-identical to a fresh run. A memoized golden always records a
	// full capture, so campaigns of either capture mode share it.
	Cache *GoldenCache
	// Sinks receive each ScenarioResult as it completes (completion
	// order, Emit calls serialized across workers), so huge campaigns
	// stream instead of buffering. A sink error does not stop the
	// campaign; the first one is returned (as a *SinkError) after every
	// scenario finished. The campaign never closes a sink — one sink
	// commonly spans several Run calls (a suite's waves, a multi-suite
	// sweep), so the owner must call Close after the last campaign or
	// buffered sinks lose their tail.
	Sinks []ResultSink
	// CaptureMode selects full-trace or fingerprint-only capture for
	// every run the Cache does not memoize (default CaptureFull). In
	// fingerprint mode those scenarios materialize no Recording, and
	// same-simKey scenarios that differ only in their FlagOnly detector
	// are fused into one simulation observing all the detectors at once
	// — the N-detectors-per-print sweep costs one print instead of N.
	CaptureMode CaptureMode
}

// simKey is everything one simulation depends on besides its trojan
// and detectors: the program's content hash, the seed, the effective
// budget and the rig fields. Scenarios with equal keys simulate the same
// print, so the campaign's three sharing decisions are projections of
// it: the program hash picks the compiled plan, the full key (plus the
// detector's binding) picks the fused simulation, and the full key is
// the golden cache's key (and, as storeKey, the golden store's).
type simKey struct {
	program [sha256.Size]byte
	seed    uint64
	budget  sim.Time
	tap     fpga.TapSide
	settle  sim.Time
	bypass  bool
}

// key derives the scenario's simKey under the campaign's budget.
func (s *Scenario) key(budget sim.Time) simKey {
	if s.Budget != 0 {
		budget = s.Budget
	}
	return simKey{
		program: hashProgram(s.Program),
		seed:    s.Seed,
		budget:  budget,
		tap:     s.Tap,
		settle:  s.Settle,
		bypass:  s.Bypass,
	}
}

// planEntry lazily compiles one program's shared move plan.
type planEntry struct {
	once sync.Once
	c    *firmware.Compiled
	err  error
}

func (pe *planEntry) compiled(prog gcode.Program) (*firmware.Compiled, error) {
	pe.once.Do(func() { pe.c, pe.err = firmware.Compile(prog, firmware.DefaultConfig()) })
	return pe.c, pe.err
}

// fusible reports whether a scenario can join a fused fingerprint-mode
// run: no trojan, and a passive FlagOnly detector on the primary/Arduino
// feed, so attaching N of them to one print of the same simKey is
// observationally identical to N separate prints.
func fusible(s *Scenario) bool {
	return s.Trojan == nil && s.Detector != nil && s.Policy == FlagOnly &&
		(s.DetectorBind == BindPrimary || s.DetectorBind == BindArduino)
}

// units groups scenario indices into worker tasks: a single scenario,
// or — in fingerprint mode — fusible scenarios sharing a simKey and
// binding, fused onto one simulation.
func (c Campaign) units(scenarios []Scenario, keys []simKey) [][]int {
	units := make([][]int, 0, len(scenarios))
	type fusion struct {
		key  simKey
		bind TapBinding
	}
	fused := make(map[fusion]int) // → index into units
	for i := range scenarios {
		s := &scenarios[i]
		if c.CaptureMode != CaptureFingerprint || !fusible(s) {
			units = append(units, []int{i})
			continue
		}
		f := fusion{keys[i], s.DetectorBind}
		if u, ok := fused[f]; ok {
			units[u] = append(units[u], i)
		} else {
			fused[f] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
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
	keys := make([]simKey, len(scenarios))
	plans := make(map[[sha256.Size]byte]*planEntry)
	planOf := make([]*planEntry, len(scenarios))
	for i := range scenarios {
		keys[i] = scenarios[i].key(budget)
		pe, ok := plans[keys[i].program]
		if !ok {
			pe = &planEntry{}
			plans[keys[i].program] = pe
		}
		planOf[i] = pe
	}
	units := c.units(scenarios, keys)

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
					results[i] = c.runScenario(ctx, &scenarios[i], keys[i], planOf[i], core)
					emit(results[i])
					continue
				}
				for i, r := range c.runFused(ctx, scenarios, unit, keys[unit[0]], planOf[unit[0]], core) {
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
func (c Campaign) runScenario(ctx context.Context, s *Scenario, k simKey, plan *planEntry, core *TestbedCore) ScenarioResult {
	out := ScenarioResult{Name: s.Name, Seed: k.seed}
	var res *Result
	var err error
	if c.Cache != nil && s.goldenCacheable() {
		// A memoized golden always records a full capture, so campaigns
		// of either capture mode share it.
		full := c
		full.CaptureMode = CaptureFull
		res, err = c.Cache.run(k, func() (*Result, error) { return full.runFresh(ctx, s, k, plan, core) })
	} else {
		res, err = c.runFresh(ctx, s, k, plan, core)
	}
	if err != nil {
		out.Err = fmt.Errorf("offramps: scenario %q: %w", s.Name, err)
		return out
	}
	out.Result = res
	return out
}

// runFresh builds a testbed for the scenario and simulates it.
func (c Campaign) runFresh(ctx context.Context, s *Scenario, k simKey, plan *planEntry, core *TestbedCore) (*Result, error) {
	var tr fpga.Trojan
	if s.Trojan != nil {
		if tr = s.Trojan(k.seed); tr == nil {
			return nil, fmt.Errorf("trojan factory returned nil")
		}
	}
	tb, ropts, err := c.rig(k, s.Program, plan, tr, core)
	if err != nil {
		return nil, err
	}
	if s.Detector != nil {
		d, err := s.Detector()
		if err != nil {
			return nil, fmt.Errorf("detector: %w", err)
		}
		ropts = append(ropts, WithDetectorAt(s.DetectorBind, d, s.Policy))
	}
	return tb.Run(ctx, s.Program, ropts...)
}

// rig builds the testbed for one simulation of key k, with the trojan
// (if any) installed, and the run options every scenario observing that
// simulation shares: the budget, the capture mode and the program's
// compiled plan. The solo and fused paths both start here and add only
// their detectors.
func (c Campaign) rig(k simKey, prog gcode.Program, plan *planEntry, tr fpga.Trojan, core *TestbedCore) (*Testbed, []RunOption, error) {
	compiled, err := plan.compiled(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("compiling move plan: %w", err)
	}
	opts := []Option{WithSeed(k.seed), WithCore(core)}
	if k.bypass {
		opts = append(opts, WithoutMITM())
	}
	if k.tap != fpga.TapArduino {
		opts = append(opts, WithTapSide(k.tap))
	}
	if k.settle != 0 {
		opts = append(opts, WithSettle(k.settle))
	}
	if tr != nil {
		opts = append(opts, WithTrojan(tr))
	}
	tb, err := NewTestbed(opts...)
	if err != nil {
		return nil, nil, err
	}
	return tb, []RunOption{WithLimit(k.budget), WithCaptureMode(c.CaptureMode), withCompiled(compiled)}, nil
}

// runFused executes one fused unit: a single simulation of the unit's
// shared simKey observed by every member's detector at once. Member j's
// result is the shared outcome narrowed to its own detector's report.
// Fusion is only attempted for fusible scenarios (passive FlagOnly
// detectors on the same feed), so the stream each detector observes —
// and hence its verdict — is identical to a solo run; if the fused
// simulation fails for any reason, every member falls back to an
// independent solo run so error semantics stay per-scenario.
func (c Campaign) runFused(ctx context.Context, scenarios []Scenario, unit []int, k simKey, plan *planEntry, core *TestbedCore) []ScenarioResult {
	out := make([]ScenarioResult, len(unit))
	solo := func() []ScenarioResult {
		for j, i := range unit {
			out[j] = c.runScenario(ctx, &scenarios[i], k, plan, core)
		}
		return out
	}

	// Build every member's detector first: a factory failure is that
	// member's own error and must not poison the shared run.
	detectors := make([]detect.Detector, len(unit))
	attached := make([]int, 0, len(unit)) // unit positions with a live detector
	for j, i := range unit {
		s := &scenarios[i]
		out[j] = ScenarioResult{Name: s.Name, Seed: k.seed}
		d, err := s.Detector()
		if err != nil {
			out[j].Err = fmt.Errorf("offramps: scenario %q: detector: %w", s.Name, err)
			continue
		}
		detectors[j] = d
		attached = append(attached, j)
	}
	if len(attached) == 0 {
		return out
	}

	prog := scenarios[unit[0]].Program
	tb, ropts, err := c.rig(k, prog, plan, nil, core)
	if err != nil {
		return solo()
	}
	for _, j := range attached {
		s := &scenarios[unit[j]]
		ropts = append(ropts, WithDetectorAt(s.DetectorBind, detectors[j], s.Policy))
	}
	res, err := tb.Run(ctx, prog, ropts...)
	if err != nil {
		return solo()
	}
	for slot, j := range attached {
		rep := res.Detections[slot]
		narrowed := *res
		narrowed.Detections = []*detect.Report{rep}
		narrowed.TrojanLikely = rep.TrojanLikely
		out[j].Result = &narrowed
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
