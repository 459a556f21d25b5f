package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"offramps"
	"offramps/internal/goldenstore"
)

// Paths are relative to the repository root, the benchmark's working
// directory.
const (
	specDir  = "e2ebench/specs"
	pinsFile = "e2ebench/pins.json"
	buildDir = ".bench_build"

	tableIIGrid = "grid_tableii_sweep.json"
	fusedGrid   = "grid_detect_fused.json"

	// tableIIScenarios and tableIICompares are the Table II sweep's
	// shape: 9 programs × 3 seeds plus the golden and the clean control,
	// each cell compared against the golden.
	tableIIScenarios = 29
	tableIICompares  = 28
	// tableIICleanCompares are the clean arm's 3 cells and the clean
	// control; the other 24 compares are Flaw3D cells.
	tableIICleanCompares = 4

	// sweepTimeout bounds one sweep, so a wedged farm cannot hang a run.
	sweepTimeout = 2 * time.Minute
)

// pins are the committed expected outputs.
type pins struct {
	// TableIIReport maps a seed to the sha256 of the Table II report
	// that every cold, warm and farm sweep at that seed must produce.
	TableIIReport map[string]string `json:"tableIIReportSha256"`
	// FusedSims is how many simulations one detect_fused sweep runs.
	FusedSims int `json:"fusedSims"`
	// FusedVerdicts is the detect_fused verdict table, scenario name →
	// "trojan" or "clean". It holds at every seed.
	FusedVerdicts map[string]string `json:"fusedVerdicts"`
}

func loadPins(path string) (pins, error) {
	var p pins
	data, err := os.ReadFile(path)
	if err != nil {
		return p, fmt.Errorf("reading pins: %w", err)
	}
	if err := json.Unmarshal(data, &p); err != nil {
		return p, fmt.Errorf("parsing %s: %w", path, err)
	}
	return p, nil
}

// bench is one run's state: the seed, the worker count, a scratch
// directory inside the build directory, and the references sweeps are
// checked against.
type bench struct {
	seed    uint64
	workers int
	work    string
	pins    pins
	tracer  *tracer
	http    *httpStats
	seq     int

	// ref is the Table II report every cold, warm and farm sweep must
	// reproduce byte for byte; fusedSum is the first fused sweep's digest.
	ref      []byte
	fusedSum string
	// falsePositives are the reference's flagged clean cells.
	falsePositives []string
	// store is the prefilled golden store warm and farm sweeps read.
	store    *goldenstore.Store
	storeDir string
	// solo holds the probes' median solo Testbed.Run time in ms per
	// scenario class (see sweep.mix).
	solo [3]float64
}

func newBench(seed uint64) (*bench, error) {
	p, err := loadPins(pinsFile)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return nil, err
	}
	return &bench{
		seed:    seed,
		workers: runtime.NumCPU(),
		work:    work,
		pins:    p,
		tracer:  newTracer(),
		http:    newHTTPStats(),
	}, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// scratch returns a fresh path inside the run's scratch directory.
func (b *bench) scratch(prefix string) string {
	b.seq++
	return filepath.Join(b.work, fmt.Sprintf("%s-%d", prefix, b.seq))
}

// loadGrid loads and expands one of the benchmark's grids with the run's
// seed as its base seed.
func (b *bench) loadGrid(file string) (*offramps.SuiteSpec, error) {
	spec, err := offramps.LoadSuiteOrGrid(filepath.Join(specDir, file), true)
	if err != nil {
		return nil, err
	}
	spec.BaseSeed = b.seed
	return spec, nil
}

// encodeSuite serializes a report exactly as `suite -json` writes it.
func encodeSuite(rep *offramps.SuiteReport) ([]byte, error) {
	var buf bytes.Buffer
	doc := struct {
		Suites []*offramps.SuiteReport `json:"suites"`
	}{[]*offramps.SuiteReport{rep}}
	err := offramps.EncodeReport(&buf, doc)
	return buf.Bytes(), err
}

func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// sweep is the outcome of one sweep.
type sweep struct {
	// wall runs from spec load to verified report bytes; campaign is the
	// part spent executing scenarios (RunSuite, or the farm draining).
	wall, campaign time.Duration
	rows, failed   int
	problems       []string
	// counts are the per-layer counts this sweep produced.
	counts map[string]float64
	// mix counts the sweep's scenarios by how a solo run would execute
	// them: full capture, fingerprint capture, or with a board trojan.
	mix [3]int
}

// fail records a problem; any problem fails every row of the sweep.
func (s *sweep) fail(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
	s.failed = s.rows
}

func (s *sweep) expect(what string, got, want float64) {
	if got != want {
		s.fail("%s = %v, want %v", what, got, want)
	}
}

// localRun is one local sweep's products.
type localRun struct {
	spec *offramps.SuiteSpec
	rep  *offramps.SuiteReport
	doc  []byte
}

// runLocal loads a grid, runs it through Campaign.RunSuite and encodes
// the report, each stage a span under root. It fills s's rows, failed
// rows, campaign time and scenario mix.
func (b *bench) runLocal(tr *tracer, root int, trace, grid string, c offramps.Campaign, s *sweep) (*localRun, error) {
	var run localRun
	var err error
	if _, err = tr.timed(root, trace, "grid.expand", func() error {
		run.spec, err = b.loadGrid(grid)
		return err
	}); err != nil {
		return nil, err
	}
	s.rows = len(run.spec.Scenarios)
	for _, sc := range run.spec.Scenarios {
		switch {
		case sc.Trojan != nil:
			s.mix[2]++
		case c.CaptureMode == offramps.CaptureFingerprint:
			s.mix[1]++
		default:
			s.mix[0]++
		}
	}
	ms, err := tr.timed(root, trace, "campaign.run_suite", func() error {
		run.rep, err = c.RunSuite(context.Background(), run.spec)
		return err
	})
	s.campaign = time.Duration(ms * 1e6)
	if err != nil {
		return nil, err
	}
	for _, r := range run.rep.Results {
		if r.Err != nil {
			s.failed++
		}
	}
	if _, err = tr.timed(root, trace, "sink.encode_report", func() error {
		run.doc, err = encodeSuite(run.rep)
		return err
	}); err != nil {
		return nil, err
	}
	return &run, nil
}

// checkRef holds a Table II report to the run's reference. The first
// report adopts the role after being held to the paper (checkTableII)
// and, at a pinned seed, to the committed digest.
func (b *bench) checkRef(run *localRun) error {
	if b.ref != nil {
		return b.sameAsRef(run.doc)
	}
	fp, err := checkTableII(run.spec, run.rep)
	if err != nil {
		return err
	}
	b.falsePositives = fp
	if want, ok := b.pins.TableIIReport[strconv.FormatUint(b.seed, 10)]; ok && digest(run.doc) != want {
		return fmt.Errorf("Table II report sha256 %s, pinned %s for seed %d", digest(run.doc), want, b.seed)
	}
	b.ref = run.doc
	return nil
}

func (b *bench) sameAsRef(doc []byte) error {
	if !bytes.Equal(doc, b.ref) {
		return fmt.Errorf("report sha256 %s differs from the reference %s", digest(doc), digest(b.ref))
	}
	return nil
}

// checkTableII holds a Table II report to the paper: every scenario
// completed and every Flaw3D cell reads TROJAN LIKELY against the
// golden. It returns the clean cells and clean control flagged all the
// same. The paper reports none, but at about one seed in twenty one clean
// print drifts just past the comparator's 5 % margin in a single window,
// so false positives are reported, not failed; the pinned seeds have
// none.
func checkTableII(spec *offramps.SuiteSpec, rep *offramps.SuiteReport) (falsePositives []string, err error) {
	if len(rep.Results) != tableIIScenarios || len(rep.Comparisons) != tableIICompares {
		return nil, fmt.Errorf("Table II report has %d rows and %d comparisons, want %d and %d",
			len(rep.Results), len(rep.Comparisons), tableIIScenarios, tableIICompares)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			return nil, fmt.Errorf("scenario %s: %v", r.Name, r.Err)
		}
		if r.Result == nil || !r.Result.Completed {
			return nil, fmt.Errorf("scenario %s did not complete", r.Name)
		}
	}
	for _, c := range rep.Comparisons {
		if c.Err != nil || c.Report == nil {
			return nil, fmt.Errorf("compare %s vs %s: %v", c.Golden, c.Suspect, c.Err)
		}
		sc, _ := spec.FindScenario(c.Suspect)
		switch tampered := sc.Program.Flaw3D != 0; {
		case tampered && !c.Report.TrojanLikely:
			return nil, fmt.Errorf("compare %s vs %s: Flaw3D case %d not detected", c.Golden, c.Suspect, sc.Program.Flaw3D)
		case !tampered && c.Report.TrojanLikely:
			falsePositives = append(falsePositives, c.Suspect)
		}
	}
	return falsePositives, nil
}

// cacheCounts sums the golden cache and store counters of caches.
func cacheCounts(caches ...*offramps.GoldenCache) map[string]float64 {
	m := make(map[string]float64)
	for _, c := range caches {
		hits, misses := c.Stats()
		storeHits, storeMisses := c.StoreStats()
		m["goldencache.hits"] += float64(hits)
		m["goldencache.misses"] += float64(misses)
		m["goldencache.sims"] += float64(c.Sims())
		m["goldenstore.hits"] += float64(storeHits)
		m["goldenstore.misses"] += float64(storeMisses)
	}
	m["campaign.sims"] = m["goldencache.sims"]
	return m
}
