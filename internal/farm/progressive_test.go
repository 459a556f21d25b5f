package farm

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"offramps"
	"offramps/internal/sched"
)

// sweepGrid is a small multi-seed sweep with a detection boundary: the
// clean cell compares equal to the golden, the T2 cell does not, so
// both cells border each other and refinement has something to chase.
const sweepGrid = `{
  "name": "farm-sweep",
  "baseSeed": 1,
  "extra": [{"name": "golden"}],
  "axes": {
    "trojans": [{"label": "clean"}, {"name": "T2"}],
    "seeds": {"delta": true, "values": [10, 20, 30]}
  },
  "compareWith": "golden"
}`

// loadSweep expands the sweep grid fresh, returning the suite and its
// progressive layout.
func loadSweep(t *testing.T) (*offramps.SuiteSpec, *sched.Grid) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid_sweep.json")
	if err := os.WriteFile(path, []byte(sweepGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	suite, layout, err := offramps.LoadSuiteOrGridLayout(path, true)
	if err != nil {
		t.Fatal(err)
	}
	return suite, layout
}

// localProgressiveDoc is the reference: a single-process progressive
// run, serialized exactly as `suite -json` writes it.
func localProgressiveDoc(t *testing.T, cfg sched.Config) []byte {
	t.Helper()
	suite, layout := loadSweep(t)
	rep, _, err := offramps.Campaign{Cache: offramps.NewGoldenCache()}.RunSuiteProgressive(context.Background(), suite, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return suiteDoc(t, rep)
}

// TestFarmProgressiveResume: a progressive sweep killed after a partial
// round resumes from its journal — restarted with the same Progressive
// settings — and still stitches the local progressive run's bytes.
// Resumed rows observe into the re-derived schedule instantly, and
// already-journaled skip rows are not synthesized twice.
func TestFarmProgressiveResume(t *testing.T) {
	cfg := sched.Config{Budget: 5, EarlyStopK: 2}
	want := localProgressiveDoc(t, cfg)
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")

	// Phase 1: one worker completes two scenarios, then the coordinator
	// "dies" mid-sweep.
	suite1, layout1 := loadSweep(t)
	co1, err := NewCoordinator(suite1, Config{
		TTL:         30 * time.Second,
		Journal:     journal,
		Progressive: &Progressive{Layout: layout1, Sched: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(co1.Handler())
	w := &Worker{Client: &Client{Base: srv1.URL}, Name: "partial", Poll: 5 * time.Millisecond, Max: 2}
	if n, err := w.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("partial worker: n=%d err=%v", n, err)
	}
	srv1.Close()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator with the same Progressive settings
	// replays the journal into the schedule and workers finish the sweep.
	suite2, layout2 := loadSweep(t)
	co2, err := NewCoordinator(suite2, Config{
		TTL:         30 * time.Second,
		Journal:     journal,
		Progressive: &Progressive{Layout: layout2, Sched: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if co2.Resumed() == 0 {
		t.Fatal("nothing resumed from the journal")
	}
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	runWorkers(t, co2, srv2.URL, 2)

	if got := stitchDoc(t, co2); !bytes.Equal(got, want) {
		t.Error("resumed progressive farm report differs from uninterrupted local progressive run")
	}
}
