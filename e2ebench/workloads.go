package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"offramps"
	"offramps/internal/farm"
	"offramps/internal/goldenstore"
)

// workload is one named input set, run as a closed loop of sweeps.
type workload struct {
	name string
	// setupReps set-ups run before the loop; setup_s is their median.
	setupReps int
	setup     func(b *bench) error
	sweep     func(b *bench, tr *tracer, trace string) sweep
	// reaches lists the per-layer metric prefixes the workload's own
	// sweeps exercise. The traced run's probes print every per-layer
	// metric; the others are named as unreached by this workload.
	reaches []string
}

var workloads = []*workload{
	{
		name: "sweep_cold", setupReps: 200, setup: expandOnly(tableIIGrid), sweep: (*bench).coldSweep,
		reaches: []string{"grid.", "spec.", "firmware.", "testbed.", "sim.", "capture.", "detect.compare",
			"campaign.", "goldencache.hits", "goldencache.misses", "goldencache.sims", "goldenstore.hits",
			"goldenstore.misses", "goldenstore.get_absent", "goldenstore.put", "goldenstore.entry",
			"sink.encode_report", "trace."},
	},
	{
		name: "sweep_warm", setupReps: 3, setup: (*bench).prefill, sweep: (*bench).warmSweep,
		reaches: []string{"grid.", "spec.", "detect.compare", "campaign.", "goldencache.", "goldencodec.",
			"goldenstore.hits", "goldenstore.misses", "goldenstore.get_us", "goldenstore.entry",
			"sink.encode_report", "trace."},
	},
	{
		name: "detect_fused", setupReps: 200, setup: expandOnly(fusedGrid), sweep: (*bench).fusedSweep,
		reaches: []string{"grid.", "spec.", "firmware.", "testbed.", "sim.", "capture.", "trojan.",
			"detect.replay", "campaign.", "sink.encode_report", "trace."},
	},
	{
		name: "farm_warm", setupReps: 3, setup: (*bench).prefill, sweep: (*bench).farmSweep,
		reaches: []string{"grid.", "spec.", "detect.compare", "campaign.", "goldencache.", "goldencodec.",
			"goldenstore.hits", "goldenstore.misses", "goldenstore.get_us", "goldenstore.entry",
			"sink.", "farm.", "trace."},
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// expandOnly is the set-up of workloads with no store: load and expand
// the grid.
func expandOnly(grid string) func(*bench) error {
	return func(b *bench) error {
		_, err := b.loadGrid(grid)
		return err
	}
}

// prefill is the warm and farm set-up: a cold Table II sweep into a
// fresh golden store, whose report becomes the run's reference. The
// store of the last repetition is the one the sweeps read.
func (b *bench) prefill() error {
	dir := b.scratch("store")
	store, err := goldenstore.Open(dir)
	if err != nil {
		return err
	}
	cache := offramps.NewGoldenCache()
	cache.AttachStore(store)
	var s sweep
	run, err := b.runLocal(nil, 0, "setup", tableIIGrid, offramps.Campaign{Workers: b.workers, Cache: cache}, &s)
	if err != nil {
		return err
	}
	if err := b.checkRef(run); err != nil {
		return err
	}
	if n := cache.Sims(); n != tableIIScenarios {
		return fmt.Errorf("prefill simulated %d goldens, want %d", n, tableIIScenarios)
	}
	if b.storeDir != "" {
		os.RemoveAll(b.storeDir)
	}
	b.store, b.storeDir = store, dir
	return nil
}

// coldSweep runs the Table II grid with a fresh in-memory cache over an
// empty golden store: every scenario simulates and is Put.
func (b *bench) coldSweep(tr *tracer, trace string) sweep {
	s := sweep{rows: tableIIScenarios}
	dir := b.scratch("cold-store")
	defer os.RemoveAll(dir)
	start := time.Now()
	root := tr.begin(0, trace, "sweep")
	store, err := goldenstore.Open(dir)
	var cache *offramps.GoldenCache
	var run *localRun
	if err == nil {
		cache = offramps.NewGoldenCache()
		cache.AttachStore(store)
		run, err = b.runLocal(tr, root, trace, tableIIGrid, offramps.Campaign{Workers: b.workers, Cache: cache}, &s)
	}
	if err == nil {
		err = b.checkRef(run)
	}
	s.wall = time.Since(start)
	tr.end(root)
	if err != nil {
		s.fail("cold sweep: %v", err)
		return s
	}
	s.counts = cacheCounts(cache)
	s.expect("cold goldencache.sims", s.counts["goldencache.sims"], tableIIScenarios)
	s.expect("cold goldenstore.hits", s.counts["goldenstore.hits"], 0)
	s.expect("cold goldenstore.misses", s.counts["goldenstore.misses"], tableIIScenarios)
	return s
}

// warmSweep runs the Table II grid with a fresh in-memory cache over the
// prefilled store: every golden is a store hit and nothing simulates.
func (b *bench) warmSweep(tr *tracer, trace string) sweep {
	s := sweep{rows: tableIIScenarios}
	start := time.Now()
	root := tr.begin(0, trace, "sweep")
	cache := offramps.NewGoldenCache()
	cache.AttachStore(b.store)
	run, err := b.runLocal(tr, root, trace, tableIIGrid, offramps.Campaign{Workers: b.workers, Cache: cache}, &s)
	if err == nil {
		err = b.sameAsRef(run.doc)
	}
	s.wall = time.Since(start)
	tr.end(root)
	if err != nil {
		s.fail("warm sweep: %v", err)
		return s
	}
	s.counts = cacheCounts(cache)
	s.expect("warm goldencache.sims", s.counts["goldencache.sims"], 0)
	s.expect("warm goldenstore.hits", s.counts["goldenstore.hits"], tableIIScenarios)
	s.expect("warm goldenstore.misses", s.counts["goldenstore.misses"], 0)
	return s
}

// fusedSweep runs the detector grid in fingerprint mode: same-(program,
// seed) FlagOnly detector variants fuse onto one simulation, while the
// board-trojan arm runs solo.
func (b *bench) fusedSweep(tr *tracer, trace string) sweep {
	var s sweep
	start := time.Now()
	root := tr.begin(0, trace, "sweep")
	run, err := b.runLocal(tr, root, trace, fusedGrid,
		offramps.Campaign{Workers: b.workers, CaptureMode: offramps.CaptureFingerprint}, &s)
	var sims int
	if err == nil {
		sims, err = b.checkFused(run)
	}
	s.wall = time.Since(start)
	tr.end(root)
	if err != nil {
		s.fail("fused sweep: %v", err)
		return s
	}
	s.counts = map[string]float64{"campaign.sims": float64(sims)}
	return s
}

// checkFused holds a fused report to the pinned verdict table and
// simulation count, and to the run's first fused report, and returns the
// number of simulations the sweep ran. Fused members share their
// simulation's deposited Part, so distinct Parts count simulations.
func (b *bench) checkFused(run *localRun) (int, error) {
	parts := make(map[any]bool)
	var bad []string
	for _, r := range run.rep.Results {
		if r.Err != nil || r.Result == nil || r.Result.Part == nil {
			return 0, fmt.Errorf("scenario %s: no result (%v)", r.Name, r.Err)
		}
		parts[r.Result.Part] = true
		got := "clean"
		if r.Result.TrojanLikely {
			got = "trojan"
		}
		if want := b.pins.FusedVerdicts[r.Name]; got != want {
			bad = append(bad, fmt.Sprintf("%q: %q (pinned %q)", r.Name, got, want))
		}
	}
	if len(bad) > 0 || len(b.pins.FusedVerdicts) != len(run.rep.Results) {
		return 0, fmt.Errorf("verdict table differs from the pins (%d rows, %d pinned): %v", len(run.rep.Results), len(b.pins.FusedVerdicts), bad)
	}
	if len(parts) != b.pins.FusedSims {
		return 0, fmt.Errorf("%d simulations, pinned %d", len(parts), b.pins.FusedSims)
	}
	sum := digest(run.doc)
	if b.fusedSum == "" {
		b.fusedSum = sum
	} else if sum != b.fusedSum {
		return 0, fmt.Errorf("report sha256 %s differs from the run's first %s", sum, b.fusedSum)
	}
	return len(parts), nil
}

// farmPoll is the workers' lease poll while the queue is momentarily
// empty; it only delays a worker's exit at the end of a sweep.
const farmPoll = 5 * time.Millisecond

// farmSweep runs the Table II grid through an in-process coordinator
// (journal fsynced on every completion, default lease queue) on a
// loopback server, drained by one in-process worker per CPU, each with a
// fresh in-memory cache over the prefilled store.
func (b *bench) farmSweep(tr *tracer, trace string) sweep {
	s := sweep{rows: tableIIScenarios}
	journal := b.scratch("journal") + ".jsonl"
	defer os.Remove(journal)
	start := time.Now()
	root := tr.begin(0, trace, "sweep")
	var spec *offramps.SuiteSpec
	_, err := tr.timed(root, trace, "grid.expand", func() (err error) {
		spec, err = b.loadGrid(tableIIGrid)
		return err
	})
	if err != nil {
		tr.end(root)
		s.fail("farm sweep: %v", err)
		return s
	}
	s.rows = len(spec.Scenarios)
	s.mix[0] = s.rows
	co, err := farm.NewCoordinator(spec, farm.Config{Journal: journal, SyncEvery: 1})
	if err != nil {
		tr.end(root)
		s.fail("farm sweep: %v", err)
		return s
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	var rt http.RoundTripper = base
	if tr != nil {
		rt = &timedTransport{base: base, tr: tr, parent: root, stats: b.http}
	}
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()

	caches := make([]*offramps.GoldenCache, b.workers)
	completed := make([]int, b.workers)
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	drain := tr.begin(root, trace, "farm.drain")
	drainStart := time.Now()
	for k := range caches {
		caches[k] = offramps.NewGoldenCache()
		caches[k].AttachStore(b.store)
		w := &farm.Worker{
			Client: &farm.Client{Base: srv.URL, HTTP: &http.Client{Transport: rt}},
			Name:   fmt.Sprintf("w%d", k),
			Cache:  caches[k],
			Poll:   farmPoll,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			completed[k], errs[k] = w.Run(ctx)
		}()
	}
	// The sweep is stitched once every worker has exited, not when Done
	// fires: the queue marks a scenario done before the coordinator
	// records its rows, so Done can close while another worker's last
	// completion is still being recorded. A worker exits only after its
	// completions were acknowledged, that is, recorded.
	wg.Wait()
	tr.end(drain)
	s.campaign = time.Since(drainStart)

	var raw *offramps.RawSuiteReport
	_, err = tr.timed(root, trace, "sink.stitch", func() (err error) {
		select {
		case <-co.Done():
		default:
			return fmt.Errorf("workers exited before the sweep was done")
		}
		raw, err = co.Report()
		return err
	})
	var doc bytes.Buffer
	if err == nil {
		_, err = tr.timed(root, trace, "sink.encode_report", func() error {
			return offramps.EncodeReport(&doc, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*raw}})
		})
	}
	if err == nil {
		err = b.sameAsRef(doc.Bytes())
	}
	s.wall = time.Since(start)
	tr.end(root)

	if err != nil {
		s.fail("farm sweep: %v", err)
		return s
	}
	total := 0
	for k := range errs {
		if errs[k] != nil {
			s.fail("farm worker %d: %v", k, errs[k])
		}
		total += completed[k]
	}
	s.expect("farm scenarios completed", float64(total), float64(s.rows))
	s.expect("farm quarantined", float64(len(co.Quarantined())), 0)
	s.counts = cacheCounts(caches...)
	s.expect("farm goldencache.sims", s.counts["goldencache.sims"], 0)
	s.expect("farm goldenstore.misses", s.counts["goldenstore.misses"], 0)
	if tr != nil {
		if fi, err := os.Stat(journal); err == nil {
			b.http.addSweep(s.rows, float64(fi.Size())/1024)
		}
	}
	return s
}
