package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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
	c := offramps.Campaign{Cache: offramps.NewGoldenCache()}
	rep, err := c.RunSuite(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := offramps.EncodeReport(&buf, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFarmByteIdentity: a two-worker distributed sweep must produce the
// exact bytes of an uninterrupted local run — for more than one base
// seed, so nothing is accidentally anchored to seed 1.
func TestFarmByteIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := localDoc(t, loadFarmSuite(t, seed))

			journal := filepath.Join(t.TempDir(), "sweep.jsonl")
			co, err := NewCoordinator(loadFarmSuite(t, seed), Config{TTL: 30 * time.Second, Journal: journal})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			srv := httptest.NewServer(co.Handler())
			defer srv.Close()

			runWorkers(t, co, srv.URL, 2)
			if got := stitchDoc(t, co); !bytes.Equal(got, want) {
				t.Errorf("farm report differs from local run\nlocal: %d bytes\nfarm:  %d bytes", len(want), len(got))
			}

			// The journal alone re-stitches the same report: it is a
			// complete -jsonl stream of the sweep.
			f, err := os.Open(journal)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := offramps.ReadResumeIndex(f, "farm-grid")
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			spec := loadFarmSuite(t, seed)
			if missing := ix.Missing(spec); len(missing) != 0 {
				t.Errorf("journal is missing scenarios %v", missing)
			}
			rep, err := offramps.StitchReport(spec, ix.Scenarios, ix.Compares)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := offramps.EncodeReport(&buf, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Error("journal-stitched report differs from local run")
			}
		})
	}
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

// TestFarmDuplicateCompletion: a completion for an already-done scenario
// is acknowledged as a duplicate and its rows are dropped, not recorded
// twice.
func TestFarmDuplicateCompletion(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	spec := loadFarmSuite(t, 1)
	co, err := NewCoordinator(spec, Config{TTL: 30 * time.Second, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	runWorkers(t, co, srv.URL, 2)

	cl := &Client{Base: srv.URL}
	status, err := cl.Complete(context.Background(), CompleteRequest{
		Token:    "L9999",
		Scenario: spec.Scenarios[0].Name,
		Row:      json.RawMessage(`{"bogus": true}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != CompleteDuplicate {
		t.Fatalf("late completion = %q, want duplicate", status)
	}
	status, err = cl.Complete(context.Background(), CompleteRequest{
		Token:    "L9999",
		Scenario: "no-such-scenario",
		Row:      json.RawMessage(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != CompleteUnknown {
		t.Fatalf("unknown completion = %q, want unknown", status)
	}

	// The journal carries each scenario exactly once despite the replay.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		row, err := offramps.ParseStreamRow([]byte(line))
		if err != nil {
			t.Fatalf("journal row %q: %v", line, err)
		}
		if row.Name != "" {
			counts[row.Name]++
		}
	}
	if len(counts) != len(spec.Scenarios) {
		t.Errorf("journal has %d scenarios, want %d", len(counts), len(spec.Scenarios))
	}
	for name, n := range counts {
		if n != 1 {
			t.Errorf("journal row for %q appears %d times", name, n)
		}
	}
}
