// Command suite executes declarative scenario-spec files: every
// experiment is data, not code. A spec file describes scenarios (program
// reference, trojan, detector, tap placement, seed policy, budget) and
// post-run golden comparisons; the runner compiles them through the
// registry-backed spec compiler and fans the prints across the campaign
// worker pool, then emits human, JSON, and CSV reports.
//
// Usage:
//
//	suite spec.json...
//	suite -workers 4 -json report.json -csv rows.csv specs/*.json
//	suite -seed 99 spec.json        # override the spec's base seed
//	suite -grid grid.json           # expand a parameter-grid sweep first
//	suite -grid -shard 2/4 -jsonl shard2.jsonl grid.json
//	suite -grid -merge -json merged.json grid.json shard*.jsonl
//	suite -jsonl results.jsonl -progress big_sweep.json
//	suite -golden-store .goldens spec.json  # reuse golden prints across runs
//	suite -scenario-budget 14 -earlystop 2 grid_sweep.json
//	suite -golden-store .goldens -golden-store-gc spec.json  # drop stale goldens
//
// -scenario-budget or -earlystop runs a spec as a progressive sweep
// (internal/sched) and prints its summary line: round one executes one
// seed per grid cell (plus every extra), later rounds refine cells that
// sit on a detection boundary first, and the two values bound the total
// work. Scenarios the scheduler retires become synthesized "skipped
// (...)" rows, so the report and any -jsonl stream stay complete; every
// executed row is byte-identical to the full run's. A plain suite has
// no cells, so it runs whole, exactly as without them, and prints no
// summary line.
//
// A grid file (-grid) is a compact sweep description — axes of programs,
// trojans, detectors, taps, budgets, and seeds, cross-multiplied minus
// include/exclude filters — expanded deterministically into a suite (see
// cmd/gridgen to materialize the expansion). -shard i/N runs a stable
// slice of any suite: each scenario's shard is a hash of its name, and
// the slice also runs the golden scenarios its own scenarios need. A
// shard writes every row it ran to its -jsonl stream, so CI matrices
// and remote runners can split a sweep and -merge folds the streams
// (first copy of a row wins; a repeat whose bytes differ is an error)
// into one report byte-identical to the unsharded run. -jsonl and
// -progress stream per-scenario rows as prints complete, keeping memory
// bounded on huge sweeps.
//
// See examples/specs/ for committed spec files, including the RAMPS-side
// tap scenario that detects a board-injected trojan the paper's
// Arduino-side tap is blind to (§V-D), the dual-tap self-attestation
// suite, and the Table II reproduction expressed as a grid
// (grid_tableii.json).
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"offramps"
	"offramps/internal/goldenstore"
	"offramps/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	var (
		workers  = fs.Int("workers", 0, "campaign worker-pool size (0 = GOMAXPROCS, overrides spec)")
		seed     = fs.Uint64("seed", 0, "override every suite's base seed (0 = use the spec's)")
		jsonOut  = fs.String("json", "", "write the suite reports as JSON to `file` (\"-\" = stdout)")
		csvOut   = fs.String("csv", "", "write per-scenario and per-comparison rows as CSV to `file` (\"-\" = stdout)")
		grid     = fs.Bool("grid", false, "treat the spec files as parameter-grid sweeps and expand them first (grid_*.json files auto-detect)")
		shard    = fs.String("shard", "", "run only shard `i/N` of each suite (stable per-scenario slices; stream with -jsonl, merge with -merge)")
		merge    = fs.Bool("merge", false, "merge shard streams: first arg is the spec/grid file, the rest are -jsonl streams or farm journals")
		jsonlOut = fs.String("jsonl", "", "stream one JSON line per completed scenario to `file` (\"-\" = stdout)")
		progress = fs.Bool("progress", false, "print a progress line as each scenario completes")
		storeDir = fs.String("golden-store", "", "persist golden runs in `dir` across invocations (misses fill it; corrupt entries re-simulate)")
		storeGC  = fs.Bool("golden-store-gc", false, "after the run, prune the golden store in place: remove entries this run did not touch, corrupt entries and crashed writers' temp files (requires -golden-store)")
		budget   = fs.Int("scenario-budget", 0, "progressive: target number of executed scenarios, coverage included (0 = unlimited; coverage always runs)")
		early    = fs.Int("earlystop", 0, "progressive: retire a cell once its first `k` seeds agree on a verdict (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		fs.Usage()
		return fmt.Errorf("no spec files given")
	}
	if *storeGC && *storeDir == "" {
		return fmt.Errorf("-golden-store-gc requires -golden-store")
	}
	sweep := sched.Config{Budget: *budget, EarlyStopK: *early}
	if (*budget != 0 || *early != 0) && (*shard != "" || *merge) {
		return fmt.Errorf("-scenario-budget and -earlystop are incompatible with -shard and -merge (the scheduler owns the execution order)")
	}
	if *merge {
		if *shard != "" {
			return fmt.Errorf("-merge and -shard are mutually exclusive")
		}
		if *csvOut != "" || *jsonlOut != "" || *progress {
			return fmt.Errorf("-csv, -jsonl, and -progress are not supported with -merge (it stitches existing -jsonl streams)")
		}
		return runMerge(*grid, *seed, paths, *jsonOut, stdout)
	}
	var shardIdx, shardCnt int
	if *shard != "" {
		if *jsonOut != "" || *csvOut != "" {
			return fmt.Errorf("-json and -csv are not supported with -shard (it writes -jsonl streams for -merge)")
		}
		var err error
		if shardIdx, shardCnt, err = offramps.ParseShard(*shard); err != nil {
			return err
		}
	}

	var jsonl *offramps.JSONLSink
	if *jsonlOut != "" {
		w, closer, err := sink(*jsonlOut, stdout)
		if err != nil {
			return fmt.Errorf("jsonl: %w", err)
		}
		defer closer()
		jsonl = offramps.NewJSONLSink(w)
	}

	// One golden cache across all suites: spec files that print the same
	// (program, seed) golden share a single simulation. -golden-store adds
	// a persistent tier underneath, shared across invocations.
	cache := offramps.NewGoldenCache()
	var store *goldenstore.Store
	if *storeDir != "" {
		var err error
		if store, err = goldenstore.Open(*storeDir); err != nil {
			return fmt.Errorf("golden-store: %w", err)
		}
		cache.AttachStore(store)
	}
	var reports []*offramps.SuiteReport
	var sinkFailure error
	for _, path := range paths {
		spec, err := offramps.LoadSuiteOrGrid(path, *grid)
		if err != nil {
			return err
		}
		if *seed != 0 {
			spec.BaseSeed = *seed
		}
		runSpec := spec
		if *shard != "" {
			if runSpec, err = spec.Shard(shardIdx, shardCnt); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}

		c := offramps.Campaign{Cache: cache}
		if *workers > 0 {
			c.Workers = *workers
			runSpec.Workers = 0 // flag wins over the spec
		}
		// The jsonl sink spans every suite and is closed after the loop;
		// per-suite sinks are closed as each suite finishes.
		var perSuite []offramps.ResultSink
		if jsonl != nil {
			jsonl.Label = spec.Name
			c.Sinks = append(c.Sinks, jsonl)
		}
		if *progress {
			ps := &offramps.ProgressSink{W: stdout, Total: len(runSpec.Scenarios), Cache: cache}
			c.Sinks = append(c.Sinks, ps)
			perSuite = append(perSuite, ps)
		}

		start := time.Now()
		rep := &offramps.SuiteReport{Suite: runSpec.Name, BaseSeed: runSpec.BaseSeed, Results: []offramps.ScenarioResult{}}
		var stats offramps.SweepStats
		if len(runSpec.Scenarios) > 0 {
			rep, stats, err = c.RunSuiteProgressive(context.Background(), runSpec, sweep)
			if err != nil {
				// A sink failure still produced a complete report — keep
				// going so -json/-csv artifacts are written, and surface
				// the error at exit.
				var se *offramps.SinkError
				if !errors.As(err, &se) {
					return fmt.Errorf("%s: %w", path, err)
				}
				if sinkFailure == nil {
					sinkFailure = fmt.Errorf("%s: %w", path, err)
				}
			}
		}
		for _, s := range perSuite {
			if cerr := s.Close(); cerr != nil && sinkFailure == nil {
				sinkFailure = fmt.Errorf("%s: result sink: %w", path, cerr)
			}
		}
		if *shard != "" {
			// The count includes helper goldens owned by other shards;
			// their rows repeat byte for byte across streams.
			fmt.Fprintf(stdout, "shard %d/%d of %s: ran %d of %d scenarios\n",
				shardIdx, shardCnt, spec.Name, len(rep.Results), len(spec.Scenarios))
		}
		if jsonl != nil {
			// Comparison rows ride the stream too (after the suite's
			// scenario rows), so a -jsonl stream alone carries everything
			// -merge needs to stitch the full report. A shard's are the
			// ones its owned scenarios draw as suspect.
			for _, cmp := range rep.Comparisons {
				if cerr := jsonl.EmitCompare(cmp); cerr != nil && sinkFailure == nil {
					sinkFailure = fmt.Errorf("jsonl: %w", cerr)
				}
			}
		}
		fmt.Fprint(stdout, rep.Format())
		if line := stats.Summary(); line != "" {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintf(stdout, "(%s executed in %v)\n\n", path, time.Since(start).Round(time.Millisecond))
		reports = append(reports, rep)
	}
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil && sinkFailure == nil {
			sinkFailure = fmt.Errorf("jsonl: %w", cerr)
		}
	}
	if *storeDir != "" {
		storeHits, storeMisses := cache.StoreStats()
		fmt.Fprintf(stdout, "golden store: %d hits, %d misses, %d simulations\n",
			storeHits, storeMisses, cache.Sims())
	}
	if *storeGC {
		// The keep set is every store key this run consulted (hit or
		// miss-then-fill); everything else is a leftover from old specs,
		// formats, or seeds and is removed in place.
		before := store.Len()
		keep := make(map[goldenstore.Key]bool)
		for _, k := range cache.UsedStoreKeys() {
			keep[k] = true
		}
		if err := store.Prune(func(k goldenstore.Key, _ []byte) bool { return keep[k] }); err != nil {
			return fmt.Errorf("golden-store-gc: %w", err)
		}
		fmt.Fprintf(stdout, "golden store gc: kept %d entries, dropped %d\n",
			store.Len(), before-store.Len())
	}

	if *jsonOut != "" {
		if err := writeJSONDoc(*jsonOut, stdout, struct {
			Suites []*offramps.SuiteReport `json:"suites"`
		}{reports}); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if *csvOut != "" {
		if err := writeCSV(*csvOut, stdout, reports); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	if err := firstError(reports); err != nil {
		return err
	}
	return sinkFailure
}

// firstError surfaces scenario or comparison failures as a non-zero exit
// (a TrojanLikely verdict is a finding, not a failure, and a progressive
// sweep's synthesized "skipped (...)" rows are deliberate outcomes).
func firstError(reports []*offramps.SuiteReport) error {
	for _, rep := range reports {
		for _, r := range rep.Results {
			if r.Err != nil && !offramps.IsSkippedResult(r.Err.Error()) {
				return fmt.Errorf("suite %s: scenario %s: %w", rep.Suite, r.Name, r.Err)
			}
		}
		for _, c := range rep.Comparisons {
			if c.Err != nil && !offramps.IsSkippedResult(c.Err.Error()) {
				return fmt.Errorf("suite %s: compare %s vs %s: %w", rep.Suite, c.Golden, c.Suspect, c.Err)
			}
		}
	}
	return nil
}

// sink opens the output target ("-" = the runner's stdout). The returned
// close func is idempotent, so it can back both a defer (cleanup on
// error) and an explicit flush-and-close whose error is checked.
func sink(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	var once sync.Once
	var cerr error
	return f, func() error {
		once.Do(func() { cerr = f.Close() })
		return cerr
	}, nil
}

// writeJSONDoc writes any document as indented JSON. Both the live
// report path and the shard merge path emit through this one encoder
// configuration — that shared normalization is what makes a merged
// report byte-identical to an unsharded one.
func writeJSONDoc(path string, stdout io.Writer, doc any) error {
	w, closer, err := sink(path, stdout)
	if err != nil {
		return err
	}
	defer closer()
	if err := offramps.EncodeReport(w, doc); err != nil {
		return err
	}
	return closer()
}

func writeCSV(path string, stdout io.Writer, reports []*offramps.SuiteReport) error {
	w, closer, err := sink(path, stdout)
	if err != nil {
		return err
	}
	defer closer()
	cw := csv.NewWriter(w)
	if err := cw.Write(offramps.ScenarioCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, rep := range reports {
		for _, r := range rep.Results {
			if err := cw.Write(offramps.ScenarioCSVRow(rep.Suite, r)); err != nil {
				return err
			}
		}
		for _, c := range rep.Comparisons {
			row := []string{"compare", rep.Suite, "", "", c.Golden, c.Suspect}
			if c.Err != nil {
				row = append(row, "", "", "", "", "", "", "", "", "", c.Err.Error())
			} else {
				row = append(row,
					"", "",
					strconv.FormatBool(c.Report.TrojanLikely),
					strconv.Itoa(c.Report.NumMismatches),
					strconv.Itoa(len(c.Report.Final)),
					f(c.Report.LargestPercent),
					"", "", "", "",
				)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return closer()
}
