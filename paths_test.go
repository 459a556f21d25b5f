package offramps_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"offramps"
	"offramps/internal/farm"
	"offramps/internal/farm/faults"
	"offramps/internal/goldenstore"
	"offramps/internal/sched"
)

// TestExecutionPathsAgree is the one determinism proof. OFFRAMPS flags
// a trojan from any difference between two captures, so every way of
// executing a suite must give the same bytes. For each fixture, a
// (suite, seed) pair, the reference path runs once: Campaign{}.RunSuite
// with lazy step trains, full capture, solo simulations and no golden
// store. Every other path must then encode the same report and, where
// it hands back in-memory results, carry the same captures,
// fingerprints and parts (SameSimulation). A new execution path is one
// more row; DESIGN.md §5 lists which fixtures carry which rows.
//
// Fixtures run in parallel.
func TestExecutionPathsAgree(t *testing.T) {
	for _, fx := range matrix(t) {
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range fx.paths {
				t.Run(p.name, func(t *testing.T) {
					ref := fx.reference(t)
					p.run(t, fx, func(label string, got outcome) {
						t.Helper()
						agree(t, label, ref, got, p.mode)
					})
				})
			}
		})
	}
}

// matrix lists the fixtures and the rows each carries: the eager
// oracle on every committed spec at seeds 1–10 (1 and 7 under -short or
// the race detector); every local, store, shard and farm path on the
// Table II grid at seeds 1 and 7; a farm progressive sweep under a
// budget; and fused fingerprint capture on a golden-free detector suite
// at seeds 1–10.
func matrix(t *testing.T) []*fixture {
	specs, err := filepath.Glob(filepath.Join("examples", "specs", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no committed specs: %v", err)
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() || offramps.RaceDetector {
		seeds = []uint64{1, 7}
	}
	eager := eagerPath()
	farmRow := path{name: "farm", run: farmSweep}
	var out []*fixture
	for _, spec := range specs {
		for _, seed := range seeds {
			fx := &fixture{
				name:  fmt.Sprintf("%s_seed%d", filepath.Base(spec), seed),
				load:  specLoader(spec, seed),
				paths: []path{eager},
			}
			if filepath.Base(spec) == "grid_tableii.json" && (seed == 1 || seed == 7) {
				fx.paths = []path{
					{name: "workers=1", run: workersOne},
					{name: "progressive", run: progressive},
					{name: "store", run: storeColdWarm},
					{name: "shards=4", run: fourShards},
					farmRow,
					eager,
				}
				if seed == 1 {
					fx.check = pinChecksum
				}
			}
			out = append(out, fx)
		}
	}
	out = append(out, &fixture{
		name:  "grid_tableii_sweep.json_seed1_budget5_earlystop2",
		load:  specLoader(filepath.Join("examples", "specs", "grid_tableii_sweep.json"), 1),
		sweep: sched.Config{Budget: 5, EarlyStopK: 2},
		paths: []path{farmRow},
	})
	// testdata/detectors.json is golden-free: every scenario carries a
	// live detector. Its default-rig pair fuses onto one print in
	// fingerprint mode; the settle and RAMPS-tap variants simulate other
	// prints and must not; the T2 board and the dual-tap attestation
	// always run solo.
	for seed := uint64(1); seed <= 10; seed++ {
		out = append(out, &fixture{
			name:  fmt.Sprintf("detectors_seed%d", seed),
			load:  specLoader(filepath.Join("testdata", "detectors.json"), seed),
			check: detectorsDiffer,
			paths: []path{{name: "fingerprint+fused", mode: offramps.CaptureFingerprint, run: fingerprintFused}},
		})
	}
	return out
}

// outcome is one execution of a fixture: the report document exactly
// as `suite -json` writes it, and the in-memory report when the path
// has one (stitched paths carry only bytes).
type outcome struct {
	doc []byte
	rep *offramps.SuiteReport
}

// fixture is one (suite, seed) pair and the paths held to its
// reference.
type fixture struct {
	name string
	// load returns a fresh copy of the suite at the fixture's seed.
	load func(t *testing.T) *offramps.SuiteSpec
	// sweep is the progressive budget and early stop the fixture runs
	// under; the zero value runs the whole suite.
	sweep sched.Config
	// check guards the reference itself (nil = none).
	check func(t *testing.T, ref outcome)
	paths []path
	ref   *outcome
}

// reference runs the reference path once and memoizes it, so a -run
// filter that selects a few rows computes only their fixtures.
func (fx *fixture) reference(t *testing.T) outcome {
	t.Helper()
	if fx.ref == nil {
		ref := fx.local(t, offramps.Campaign{})
		if fx.check != nil {
			fx.check(t, ref)
		}
		fx.ref = &ref
	}
	return *fx.ref
}

// local runs the fixture in this process through c.
func (fx *fixture) local(t *testing.T, c offramps.Campaign) outcome {
	t.Helper()
	rep, _, err := c.RunSuiteProgressive(context.Background(), fx.load(t), fx.sweep)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{doc: offramps.SuiteDoc(t, rep), rep: rep}
}

// path is one way to execute a fixture. run calls agree once per
// execution it makes: the store row, for one, runs cold and then warm.
type path struct {
	name string
	// mode is the capture mode the path runs in. Fingerprint-mode results
	// carry no recordings, so only their fingerprints and parts compare.
	mode offramps.CaptureMode
	run  func(t *testing.T, fx *fixture, agree func(label string, got outcome))
}

// agree holds one execution to the reference.
func agree(t *testing.T, label string, ref, got outcome, mode offramps.CaptureMode) {
	t.Helper()
	if !bytes.Equal(ref.doc, got.doc) {
		t.Fatalf("%s: report bytes differ from the reference at %s", label, diffAt(ref.doc, got.doc))
	}
	if got.rep == nil {
		return
	}
	for i, r := range ref.rep.Results {
		g := got.rep.Results[i]
		if (r.Result == nil) != (g.Result == nil) {
			t.Errorf("%s %s: result presence differs", label, r.Name)
			continue
		}
		if r.Result == nil {
			continue
		}
		want := r.Result
		if mode == offramps.CaptureFingerprint {
			if g.Result.Recording != nil || g.Result.ArduinoRecording != nil || g.Result.RAMPSRecording != nil {
				t.Errorf("%s %s: fingerprint mode materialized a recording", label, r.Name)
			}
			stripped := *want
			stripped.Recording, stripped.ArduinoRecording, stripped.RAMPSRecording = nil, nil, nil
			want = &stripped
		}
		if !offramps.SameSimulation(want, g.Result) {
			t.Errorf("%s %s: captures, fingerprints or part differ from the reference", label, r.Name)
		}
	}
}

// diffAt names the first line where two documents differ.
func diffAt(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of document)"
	}
	i := 0
	for i < len(wl) && i < len(gl) && wl[i] == gl[i] {
		i++
	}
	return fmt.Sprintf("line %d\nreference: %s\ngot:       %s", i+1, line(wl, i), line(gl, i))
}

func encodeRaw(t *testing.T, rep *offramps.RawSuiteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := offramps.EncodeReport(&buf, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func specLoader(path string, seed uint64) func(*testing.T) *offramps.SuiteSpec {
	return func(t *testing.T) *offramps.SuiteSpec {
		t.Helper()
		suite, err := offramps.LoadSuiteOrGrid(path, false)
		if err != nil {
			t.Fatal(err)
		}
		suite.BaseSeed = seed
		return suite
	}
}

// detectorsDiffer guards the detector fixture against rows collapsing
// into one another: the T2 print extrudes less than the clean one, the
// settle variant observes more windows, and every scenario carries its
// one detector report, the clean print's unflagged.
func detectorsDiffer(t *testing.T, ref outcome) {
	t.Helper()
	res := make(map[string]*offramps.Result)
	for _, r := range ref.rep.Results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		if len(r.Result.Detections) != 1 {
			t.Errorf("%s carries %d detector reports, want 1", r.Name, len(r.Result.Detections))
		}
		res[r.Name] = r.Result
	}
	clean := res["clean"]
	if res["t2"].Quality.TotalFilament >= clean.Quality.TotalFilament {
		t.Error("the T2 print extruded at least as much as the clean one")
	}
	if res["settle"].Fingerprint.Windows <= clean.Fingerprint.Windows {
		t.Error("the settle variant observed no more windows than the default rig")
	}
	if clean.TrojanLikely {
		t.Error("the golden-free rules flagged the clean print")
	}
}

// pinChecksum holds the Table II grid's seed-1 report to its
// grid_tableii-seed1.json line in ci/specs.sha256, the checksum CI holds
// the real binaries to.
func pinChecksum(t *testing.T, ref outcome) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("ci", "specs.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for _, line := range strings.Split(string(data), "\n") {
		if sum, ok := strings.CutSuffix(line, "  grid_tableii-seed1.json"); ok {
			want = sum
		}
	}
	if want == "" {
		t.Fatal("ci/specs.sha256 has no grid_tableii-seed1.json line")
	}
	sum := sha256.Sum256(ref.doc)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("the Table II seed-1 report hashes to %s; ci/specs.sha256 pins %s", got, want)
	}
}

// workersOne runs the campaign pool with one worker; the reference runs
// GOMAXPROCS of them.
func workersOne(t *testing.T, fx *fixture, agree func(string, outcome)) {
	agree("workers=1", fx.local(t, offramps.Campaign{Workers: 1}))
}

// progressive deals the grid's own layout through the scheduler in
// rounds, at a budget of the whole suite and at {Budget: 5,
// EarlyStopK: 2}. Every cell of the single-seed Table II grid is
// mandatory coverage, so even the budgeted run skips nothing.
func progressive(t *testing.T, fx *fixture, agree func(string, outcome)) {
	for _, cfg := range []sched.Config{{Budget: len(fx.load(t).Scenarios)}, {Budget: 5, EarlyStopK: 2}} {
		rep, _, err := offramps.Campaign{}.RunSuiteProgressive(context.Background(), fx.load(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		agree(fmt.Sprintf("budget %d", cfg.Budget), outcome{doc: offramps.SuiteDoc(t, rep), rep: rep})
	}
}

// storeColdWarm runs the fixture over an empty golden store, then
// through a fresh cache over the same directory, the way a second
// process would: the warm run must serve every golden from disk.
func storeColdWarm(t *testing.T, fx *fixture, agree func(string, outcome)) {
	dir := t.TempDir()
	open := func() *offramps.GoldenCache {
		store, err := goldenstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		gc := offramps.NewGoldenCache()
		gc.AttachStore(store)
		return gc
	}
	cold := open()
	agree("cold", fx.local(t, offramps.Campaign{Cache: cold}))
	warm := open()
	agree("warm", fx.local(t, offramps.Campaign{Cache: warm}))
	if hits, _ := cold.StoreStats(); hits != 0 || cold.Sims() == 0 {
		t.Errorf("cold store: %d hits and %d simulations, want no hits", hits, cold.Sims())
	}
	if _, misses := warm.StoreStats(); misses != 0 || warm.Sims() != 0 {
		t.Errorf("warm store: %d misses and %d simulations, want 0 and 0", misses, warm.Sims())
	}
}

// fourShards runs the four hash-keyed shards of the suite, each with
// its golden closure, streams every row through one JSONLSink, and
// stitches the stream as `suite -merge` does. The in-memory report
// holds each scenario's first row.
func fourShards(t *testing.T, fx *fixture, agree func(string, outcome)) {
	suite := fx.load(t)
	var stream bytes.Buffer
	sink := offramps.NewJSONLSink(&stream)
	sink.Label = suite.Name
	c := offramps.Campaign{Sinks: []offramps.ResultSink{sink}}
	rows := make(map[string]offramps.ScenarioResult)
	for i := 1; i <= 4; i++ {
		sub, err := suite.Shard(i, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.Scenarios) == 0 {
			continue
		}
		rep, err := c.RunSuite(context.Background(), sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmp := range rep.Comparisons {
			if err := sink.EmitCompare(cmp); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rep.Results {
			if _, ok := rows[r.Name]; !ok {
				rows[r.Name] = r
			}
		}
	}
	ix, err := offramps.ReadResumeIndex(&stream, suite.Name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := offramps.StitchReport(suite, ix.Scenarios, ix.Compares)
	if err != nil {
		t.Fatal(err)
	}
	rep := &offramps.SuiteReport{Suite: suite.Name, BaseSeed: suite.BaseSeed}
	for _, sc := range suite.Scenarios {
		rep.Results = append(rep.Results, rows[sc.Name])
	}
	agree("stitched", outcome{doc: encodeRaw(t, raw), rep: rep})
}

// fingerprintFused runs the suite as one fingerprint-mode campaign: it
// fuses same-print detector scenarios onto one simulation and runs the
// rest solo, all without recordings.
func fingerprintFused(t *testing.T, fx *fixture, agree func(string, outcome)) {
	agree("fused", fx.local(t, offramps.Campaign{CaptureMode: offramps.CaptureFingerprint}))
}

// eagerPath is the lazy step trains' oracle: every testbed keeps each
// STEP pulse on the event queue (a no-op Watch on every Arduino STEP
// line). One golden cache serves the eager runs of every fixture.
func eagerPath() path {
	cache := offramps.NewGoldenCache()
	return path{name: "eager", run: func(t *testing.T, fx *fixture, agree func(string, outcome)) {
		agree("eager", fx.local(t, offramps.EagerCampaign(offramps.Campaign{Cache: cache})))
	}}
}

// chaosSeedOffset is FARM_CHAOS_SEED, an offset on the farm row's
// transport and jitter seeds, so CI can sweep fault schedules. Unset or
// unparsable means 0.
func chaosSeedOffset() uint64 {
	v, err := strconv.ParseUint(os.Getenv("FARM_CHAOS_SEED"), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// farmFaults is the farm row's fault script. Every fault either never
// reaches the coordinator (drop, 500) or hits a completion, which
// dedupes; none can grant a lease whose reply is lost.
var farmFaults = []faults.Rule{
	{Path: farm.PathComplete, Kind: faults.Duplicate, P: 0.3},
	{Path: farm.PathComplete, Kind: faults.Truncate, P: 0.1},
	{Kind: faults.Drop, P: 0.1},
	{Kind: faults.Err500, P: 0.1},
	{Kind: faults.Delay, Delay: time.Millisecond, P: 0.1},
}

// farmSweep runs the fixture through an in-process coordinator and two
// workers whose every request crosses a seeded fault-injecting
// transport. Both the coordinator's stitched report and a restitch of
// its journal alone must equal the reference. A scenario that keeps
// failing is quarantined after three strikes, so a broken path fails
// the row instead of re-dealing forever.
func farmSweep(t *testing.T, fx *fixture, agree func(string, outcome)) {
	suite := fx.load(t)
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	co, err := farm.NewCoordinator(suite, farm.Config{TTL: 30 * time.Second, Journal: journal, MaxStrikes: 3, Sched: fx.sweep})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := uint64(1); i <= 2; i++ {
		seed := i + chaosSeedOffset()
		w := &farm.Worker{
			Client:  &farm.Client{Base: srv.URL, HTTP: &http.Client{Transport: faults.NewTransport(seed, farmFaults...)}},
			Name:    fmt.Sprintf("w%d", i),
			Seed:    seed,
			Poll:    5 * time.Millisecond,
			Backoff: faults.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond, Attempts: 12},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(context.Background()); err != nil {
				errs <- fmt.Errorf("worker %s: %w", w.Name, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("the workers exited but the sweep is not done")
	}
	if st := co.SweepStats(); st.Covered != st.Cells {
		t.Errorf("the sweep covered %d of %d cells", st.Covered, st.Cells)
	}
	rep, err := co.Report()
	if err != nil {
		t.Fatal(err)
	}
	agree("coordinator", outcome{doc: encodeRaw(t, rep)})

	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, err := offramps.ReadResumeIndex(f, suite.Name)
	if err != nil {
		t.Fatal(err)
	}
	spec := fx.load(t)
	stitched, err := offramps.StitchReport(spec, ix.Scenarios, ix.Compares)
	if err != nil {
		t.Fatal(err)
	}
	agree("journal", outcome{doc: encodeRaw(t, stitched)})
}
