package offramps

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"offramps/internal/capture"
	"offramps/internal/sched"
)

// This file holds the one suite executor: internal/sched decides which
// scenarios run (coverage first, refinement around detection
// boundaries, early stop for unanimous cells) and RunSuiteProgressive
// executes each round as an ordinary campaign batch, feeding verdicts
// back. A plain suite is the degenerate layout whose scenarios are all
// extras, so RunSuite is the same loop with nothing to skip. Scenarios the scheduler retires become synthesized skip rows —
// ScenarioResult errors with the canonical "skipped (...)" text — so
// the report, the JSONL streams, and StitchReport stay complete. Every
// executed scenario's row is byte-identical to the full run's row for
// the same name: execution inputs are per-scenario and never depend on
// which other scenarios ran.

// skippedResultPrefix marks a synthesized skip row's error text. The
// prefix — not a sentinel error type — is the contract, because skip
// rows round-trip through JSONL streams and farm journals as plain
// strings.
const skippedResultPrefix = "skipped ("

// SkipMessage renders the canonical error text of a synthesized skip
// row ("skipped (early-stop, 2/2 unanimous)").
func SkipMessage(reason string) string { return skippedResultPrefix + reason + ")" }

// IsSkippedResult reports whether a scenario or comparison error text
// marks a progressive-sweep skip row rather than a real failure, so
// exit-code checks can pass over skips while still failing on errors.
func IsSkippedResult(msg string) bool { return strings.HasPrefix(msg, skippedResultPrefix) }

// SweepStats summarizes a finished progressive sweep.
type SweepStats struct {
	sched.Stats
}

// Summary renders the stats as one progress line, or "" when the sweep
// dealt no grid cells: a plain run, which Scheduler gives the zero
// Config and any suite without a layout.
func (st SweepStats) Summary() string {
	if st.Cells == 0 {
		return ""
	}
	return fmt.Sprintf("progressive: %d/%d cells covered, %d boundary cells, %d scenarios executed, %d skipped of %d (%d rounds)",
		st.Covered, st.Cells, st.Boundary, st.Executed, st.Skipped, st.Total, st.Rounds)
}

// Scheduler returns the scheduler that deals the suite's scenarios
// under cfg; both suite drivers (RunSuiteProgressive and the farm
// coordinator) take their rounds from it. The zero Config, and any
// Config on a suite without a grid layout (a plain suite, a Shard, a
// Subset), schedule the plain layout: no cells, every scenario an
// extra, so round 1 runs the whole suite in suite order and nothing can
// be skipped. Any other Config deals the grid's cells through its
// layout, which first must pass validateProgressive.
func (s *SuiteSpec) Scheduler(cfg sched.Config) (*sched.Scheduler, error) {
	layout := s.layout
	if layout == nil || cfg == (sched.Config{}) {
		layout = &sched.Grid{Extras: s.ScenarioNames()}
	}
	if err := validateProgressive(s, layout); err != nil {
		return nil, err
	}
	return sched.New(layout, cfg)
}

// validateProgressive checks that the suite is safely skippable under
// the layout: every golden reference — a detector's golden scenario or
// a comparison's golden side — must be one of the layout's extras.
// Extras always execute (round 1, never retired); a cell seed used as a
// golden could be skipped, and a compare or detector referencing a skip
// row would then diverge from the full run instead of reproducing it.
func validateProgressive(suite *SuiteSpec, layout *sched.Grid) error {
	extra := make(map[string]bool, len(layout.Extras))
	for _, name := range layout.Extras {
		extra[name] = true
	}
	for _, sc := range suite.Scenarios {
		if sc.Detector != nil && sc.Detector.Golden != "" && !extra[sc.Detector.Golden] {
			return fmt.Errorf("offramps: suite %q: progressive execution requires detector goldens to be grid extras, but %q references cell scenario %q", suite.Name, sc.Name, sc.Detector.Golden)
		}
	}
	for _, cmp := range suite.Compare {
		if !extra[cmp.Golden] {
			return fmt.Errorf("offramps: suite %q: progressive execution requires compare goldens to be grid extras, but %q vs %q compares against a cell scenario", suite.Name, cmp.Golden, cmp.Suspect)
		}
	}
	return nil
}

// verdict is the one verdict rule, over the few fields of a scenario
// row it reads: whether the row failed (an error, or no result at all),
// its number of live detector reports, its own TrojanLikely flag, and
// the verdict of its first executed comparison (Unknown when none ran).
// A failed row is Errored; a live detection decides by TrojanLikely;
// otherwise the first executed comparison decides; otherwise the row's
// own flag; otherwise Unknown.
func verdict(failed bool, detections int, trojanLikely bool, firstCompare sched.Verdict) sched.Verdict {
	switch {
	case failed:
		return sched.Errored
	case detections == 0 && firstCompare != sched.Unknown:
		return firstCompare
	case trojanLikely:
		return sched.Trojan
	case detections > 0:
		return sched.Clean
	}
	return sched.Unknown
}

// compareVerdict is one executed comparison's verdict: Errored when it
// failed, else its report's TrojanLikely decides.
func compareVerdict(failed, trojanLikely bool) sched.Verdict {
	switch {
	case failed:
		return sched.Errored
	case trojanLikely:
		return sched.Trojan
	}
	return sched.Clean
}

// progressiveVerdict applies the verdict rule to in-memory results. The
// first executed comparison is the scenario's first comparison whose
// golden has executed, memoized in cache (by index into suite.Compare)
// so the final report reuses the same CompareResult.
func progressiveVerdict(name string, suite *SuiteSpec, results map[string]ScenarioResult, cache map[int]CompareResult) sched.Verdict {
	first := sched.Unknown
	for i, cmp := range suite.Compare {
		if cmp.Suspect != name {
			continue
		}
		if _, ran := results[cmp.Golden]; !ran {
			continue
		}
		cr, ok := cache[i]
		if !ok {
			cr = runCompare(cmp, results)
			cache[i] = cr
		}
		first = compareVerdict(cr.Err != nil, cr.Err == nil && cr.Report.TrojanLikely)
		break
	}
	res, ok := results[name]
	if !ok || res.Err != nil || res.Result == nil {
		return verdict(true, 0, false, first)
	}
	return verdict(false, len(res.Result.Detections), res.Result.TrojanLikely, first)
}

// RowVerdict applies the verdict rule to rows as they travel through
// JSONL streams, farm completions, and journals: row is a report-shaped
// scenario row (StreamRow.Report) and firstCompare the report-shaped
// object of the scenario's first executed comparison (empty when none
// ran). Rows arrive from outside the process, so malformed input reads
// as Errored instead of failing.
func RowVerdict(row, firstCompare json.RawMessage) sched.Verdict {
	var r struct {
		Err    string
		Result *struct {
			Detections   []json.RawMessage
			TrojanLikely bool
		}
	}
	if json.Unmarshal(row, &r) != nil {
		return sched.Errored
	}
	first := sched.Unknown
	if len(firstCompare) > 0 {
		var c struct {
			Error  string                       `json:"error"`
			Report *struct{ TrojanLikely bool } `json:"report"`
		}
		if json.Unmarshal(firstCompare, &c) != nil {
			return sched.Errored
		}
		first = compareVerdict(c.Error != "" || c.Report == nil, c.Report != nil && c.Report.TrojanLikely)
	}
	if r.Err != "" || r.Result == nil {
		return verdict(true, 0, false, first)
	}
	return verdict(false, len(r.Result.Detections), r.Result.TrojanLikely, first)
}

// RunSuiteProgressive is the one suite executor. Rounds of scenarios
// chosen by sched run as ordinary campaign batches, each batch executed
// in dependency-ordered waves: a wave runs every scenario whose golden
// reference (if any) has already executed, so chains of golden
// references (A ← B ← C) execute correctly at any depth. Verdicts feed
// back, and retired scenarios become synthesized skip rows in the
// report and the sinks. Afterwards the Compare entries replay captures
// through registry-built detectors. Results keep suite order regardless
// of round or wave. SuiteSpec.Scheduler picks the layout from cfg;
// under the zero Config the executed set is the whole suite and nothing
// is skipped, which is RunSuite. The receiver's Workers/Budget act as
// defaults; the suite's own values win when set.
func (c Campaign) RunSuiteProgressive(runCtx context.Context, suite *SuiteSpec, cfg sched.Config) (*SuiteReport, SweepStats, error) {
	if err := suite.Validate(); err != nil {
		return nil, SweepStats{}, err
	}
	sch, err := suite.Scheduler(cfg)
	if err != nil {
		return nil, SweepStats{}, err
	}
	if suite.Workers != 0 {
		c.Workers = suite.Workers
	}
	if suite.Budget != 0 {
		c.Budget = suite.Budget
	}

	specs := make(map[string]ScenarioSpec, len(suite.Scenarios))
	for _, sc := range suite.Scenarios {
		specs[sc.Name] = sc
	}

	recordings := make(map[string]*capture.Recording)
	results := make(map[string]ScenarioResult, len(suite.Scenarios))
	compares := make(map[int]CompareResult)
	ctx := SpecContext{
		BaseSeed: suite.BaseSeed,
		Dir:      suite.dir,
		Goldens:  func(name string) *capture.Recording { return recordings[name] },
	}

	// A sink failure does not stop the suite: the wave's results are
	// complete (Run surfaces sink errors only after every scenario
	// finished), so later waves and the comparisons still run; the first
	// sink error is returned at the end with the full report.
	var sinkFailure error
	noteSink := func(err error) {
		if sinkFailure == nil && err != nil {
			sinkFailure = err
		}
	}
	runWave := func(specs []ScenarioSpec) error {
		scens, err := CompileSpecs(ctx, specs)
		if err != nil {
			return err
		}
		res, err := c.Run(runCtx, scens)
		var se *SinkError
		if errors.As(err, &se) {
			noteSink(err)
			err = nil
		}
		for _, r := range res {
			if r.Name == "" {
				continue
			}
			results[r.Name] = r
			if r.Err == nil && r.Result != nil && r.Result.Recording != nil {
				recordings[r.Name] = r.Result.Recording
			}
		}
		return err
	}
	// Skip rows go through the campaign's sinks too, so JSONL streams
	// and journals stay complete records of the sweep.
	emitSkip := func(sk sched.Skip) {
		sc, ok := specs[sk.Name]
		if !ok {
			return
		}
		row := ScenarioResult{
			Name: sk.Name,
			Seed: sc.EffectiveSeed(suite.BaseSeed),
			Err:  errors.New(SkipMessage(sk.Reason)),
		}
		results[sk.Name] = row
		for _, s := range c.Sinks {
			if err := s.Emit(row); err != nil {
				noteSink(&SinkError{Err: err})
			}
		}
	}

	report := &SuiteReport{Suite: suite.Name, BaseSeed: suite.BaseSeed}
	assemble := func() {
		report.Results = make([]ScenarioResult, 0, len(suite.Scenarios))
		for _, sc := range suite.Scenarios {
			r, ok := results[sc.Name]
			if !ok {
				r = ScenarioResult{Name: sc.Name, Seed: sc.EffectiveSeed(suite.BaseSeed)}
			}
			report.Results = append(report.Results, r)
		}
	}
	stats := func() SweepStats { return SweepStats{Stats: sch.Stats()} }

	for {
		round, err := sch.NextRound()
		if err != nil {
			assemble()
			return report, stats(), fmt.Errorf("offramps: suite %q: %w", suite.Name, err)
		}
		// Retirements decided while dealing this round (early stop,
		// budget exhaustion) synthesize immediately, so streams carry
		// skips in decision order.
		for _, sk := range sch.TakeRetired() {
			emitSkip(sk)
		}
		if len(round) == 0 {
			break
		}

		batch := make([]ScenarioSpec, 0, len(round))
		for _, name := range round {
			sc, ok := specs[name]
			if !ok {
				assemble()
				return report, stats(), fmt.Errorf("offramps: suite %q: layout names scenario %q the suite does not have", suite.Name, name)
			}
			batch = append(batch, sc)
		}
		// Extras referenced as goldens run in this same round (round 1)
		// or already ran in an earlier one.
		remaining := batch
		for len(remaining) > 0 {
			var wave, deferred []ScenarioSpec
			for _, sc := range remaining {
				ready := sc.Detector == nil || sc.Detector.Golden == ""
				if !ready {
					_, ready = results[sc.Detector.Golden]
				}
				if ready {
					wave = append(wave, sc)
				} else {
					deferred = append(deferred, sc)
				}
			}
			if len(wave) == 0 {
				// Unreachable after Validate's cycle check; guard anyway so
				// a future bug cannot loop forever.
				assemble()
				return report, stats(), fmt.Errorf("offramps: suite %q: unresolvable golden references", suite.Name)
			}
			if err := runWave(wave); err != nil {
				assemble()
				return report, stats(), err
			}
			remaining = deferred
		}
		for _, name := range round {
			if err := sch.Observe(name, progressiveVerdict(name, suite, results, compares)); err != nil {
				assemble()
				return report, stats(), fmt.Errorf("offramps: suite %q: %w", suite.Name, err)
			}
		}
	}
	assemble()

	// Comparisons computed eagerly for verdicts are reused verbatim; the
	// rest (including any against skip rows, whose pick() naturally
	// yields the skip text) compute here against the final results.
	for i, cmp := range suite.Compare {
		cr, ok := compares[i]
		if !ok {
			cr = runCompare(cmp, results)
		}
		report.Comparisons = append(report.Comparisons, cr)
	}
	return report, stats(), sinkFailure
}
