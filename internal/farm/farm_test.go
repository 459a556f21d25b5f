package farm

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
)

// farmGrid is a small sweep with helper goldens and comparisons — enough
// structure that a lease's sub-suite (Subset) differs from its owned
// scenario and the final report carries comparison rows.
const farmGrid = `{
  "name": "farm-grid",
  "baseSeed": 1,
  "extra": [{"name": "golden"}],
  "axes": {
    "trojans": [{"label": "clean"}, {"name": "T2"}],
    "taps": ["arduino", "ramps"]
  },
  "seedPolicy": {"deltaStart": 10},
  "compareWith": "golden"
}`

// loadFarmSuite expands the grid fresh for each use so runs never share
// spec state.
func loadFarmSuite(t *testing.T, seed uint64) *offramps.SuiteSpec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid_farm.json")
	if err := os.WriteFile(path, []byte(farmGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := offramps.LoadSuiteOrGrid(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0 {
		spec.BaseSeed = seed
	}
	return spec
}

// localDoc is the reference: an uninterrupted single-process run,
// serialized exactly as `suite -json` writes it.
func localDoc(t *testing.T, spec *offramps.SuiteSpec) []byte {
	t.Helper()
	rep, err := offramps.Campaign{Cache: offramps.NewGoldenCache()}.RunSuite(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return suiteDoc(t, rep)
}

// suiteDoc serializes a report exactly as `suite -json` writes it.
func suiteDoc(t testing.TB, rep *offramps.SuiteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	doc := struct {
		Suites []*offramps.SuiteReport `json:"suites"`
	}{[]*offramps.SuiteReport{rep}}
	if err := offramps.EncodeReport(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runWorkers drains the coordinator with n in-process workers and waits
// for both the sweep and every worker to finish.
func runWorkers(t *testing.T, co *Coordinator, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Client: &Client{Base: url},
				Name:   fmt.Sprintf("w%d", i),
				Poll:   5 * time.Millisecond,
			}
			if _, err := w.Run(context.Background()); err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("workers exited but the sweep is not done")
	}
}

func stitchDoc(t *testing.T, co *Coordinator) []byte {
	t.Helper()
	rep, err := co.Report()
	if err != nil {
		t.Fatal(err)
	}
	return encodeRaw(t, rep)
}

// TestFarmResume kills a sweep twice — a worker abandoned mid-scenario
// (lease expiry) and a coordinator restart — and the final report must
// still equal the uninterrupted local run byte for byte.
func TestFarmResume(t *testing.T) {
	want := localDoc(t, loadFarmSuite(t, 1))
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.jsonl")

	// Phase 1: a short-TTL coordinator; one lease is taken and abandoned
	// (the "worker killed mid-scenario"), one worker completes two
	// scenarios and exits, then the coordinator process "dies". Expiry
	// runs on a fake clock: the abandoned lease dies by Advance, and the
	// live worker's leases cannot expire however slowly the sims run
	// (under -race they stretch past any real-time TTL).
	clk := faults.NewFakeClock()
	co1, err := NewCoordinator(loadFarmSuite(t, 1), Config{TTL: 50 * time.Millisecond, Journal: journal, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(co1.Handler())
	cl := &Client{Base: srv1.URL}
	lease, err := cl.Lease(context.Background(), "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Status != StatusLease {
		t.Fatalf("lease = %+v", lease)
	}
	clk.Advance(60 * time.Millisecond) // heartbeat window missed; scenario requeues

	w := &Worker{Client: cl, Name: "partial", Poll: 5 * time.Millisecond, Max: 2}
	if n, err := w.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("partial worker: n=%d err=%v", n, err)
	}
	srv1.Close()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a fresh coordinator resumes from the journal and two
	// workers finish the sweep.
	co2, err := NewCoordinator(loadFarmSuite(t, 1), Config{TTL: 30 * time.Second, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if co2.Resumed() != 2 {
		t.Fatalf("Resumed() = %d, want 2", co2.Resumed())
	}
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	runWorkers(t, co2, srv2.URL, 2)

	if got := stitchDoc(t, co2); !bytes.Equal(got, want) {
		t.Error("resumed farm report differs from uninterrupted local run")
	}
}

// TestFarmResumeTornJournal: a journal whose last line was torn by a
// crash mid-append still resumes — the torn row's scenario simply
// re-runs — and the stitched report matches the local run.
func TestFarmResumeTornJournal(t *testing.T) {
	want := localDoc(t, loadFarmSuite(t, 1))
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")

	co1, err := NewCoordinator(loadFarmSuite(t, 1), Config{TTL: 30 * time.Second, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(co1.Handler())
	runWorkers(t, co1, srv1.URL, 1)
	srv1.Close()
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop the trailing newline and half the last row.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(data, "\n")
	cut := bytes.LastIndexByte(trimmed, '\n') + 1 + 10 // 10 bytes into the last row
	if err := os.WriteFile(journal, trimmed[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	co2, err := NewCoordinator(loadFarmSuite(t, 1), Config{TTL: 30 * time.Second, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	total := len(loadFarmSuite(t, 1).Scenarios)
	if co2.Resumed() >= total {
		t.Fatalf("Resumed() = %d, want < %d (torn row dropped)", co2.Resumed(), total)
	}
	srv2 := httptest.NewServer(co2.Handler())
	defer srv2.Close()
	runWorkers(t, co2, srv2.URL, 2)
	if got := stitchDoc(t, co2); !bytes.Equal(got, want) {
		t.Error("torn-journal resume differs from uninterrupted local run")
	}
}
