package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
)

// explorerSchedules is how many seeded schedules TestLeaseExplorer
// replays per run.
const explorerSchedules = 800

// tableII is the explorer's ground truth, computed once: the Table II
// grid, every scenario's honest completion, and the report those rows
// stitch to, which encodes to the `suite -json` bytes of an
// uninterrupted local run.
type tableII struct {
	spec  *offramps.SuiteSpec
	names []string
	rows  map[string]completion
	want  *offramps.RawSuiteReport
}

func loadTableII(t testing.TB) *tableII {
	t.Helper()
	spec, err := offramps.LoadSuiteOrGrid(filepath.Join("..", "..", "examples", "specs", "grid_tableii.json"), true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&offramps.Campaign{Cache: offramps.NewGoldenCache()}).RunSuite(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	doc := struct {
		Suites []*offramps.SuiteReport `json:"suites"`
	}{[]*offramps.SuiteReport{rep}}
	if err := offramps.EncodeReport(&local, doc); err != nil {
		t.Fatal(err)
	}
	tii := &tableII{spec: spec, names: spec.ScenarioNames(), rows: make(map[string]completion)}
	for _, r := range rep.Results {
		c := tii.rows[r.Name]
		c.row = jsonlRow(t, spec.Name, r)
		tii.rows[r.Name] = c
	}
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = spec.Name
	for _, cmp := range rep.Comparisons {
		buf.Reset()
		if err := sink.EmitCompare(cmp); err != nil {
			t.Fatal(err)
		}
		c := tii.rows[cmp.Suspect]
		c.compares = append(c.compares, bytes.Clone(bytes.TrimSpace(buf.Bytes())))
		tii.rows[cmp.Suspect] = c
	}

	// Stitch the honest rows once and hold them to the local bytes, so a
	// schedule need only compare its stitched report with this one.
	scenarios := make(map[string]json.RawMessage)
	compares := make(map[string]json.RawMessage)
	for name, c := range tii.rows {
		p, err := offramps.ParseStreamRow(c.row)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[name] = p.Report
		for _, raw := range c.compares {
			p, err := offramps.ParseStreamRow(raw)
			if err != nil {
				t.Fatal(err)
			}
			compares[p.Key] = p.Report
		}
	}
	if tii.want, err = offramps.StitchReport(spec, scenarios, compares); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeRaw(t, tii.want), local.Bytes()) {
		t.Fatal("the honest rows do not stitch to the local run's bytes")
	}
	return tii
}

func encodeRaw(t testing.TB, rep *offramps.RawSuiteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := offramps.EncodeReport(&buf, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLeaseExplorer is the lease state machine's oracle. Each seeded
// schedule runs the Table II grid through one coordinator on a fake
// clock, reached over an in-memory transport by a few virtual workers
// that lease, heartbeat, complete (honestly, under another worker's
// token, or with rows the coordinator rejects), fail, crash, and wait
// out their TTLs, while the coordinator is drained and restarted over
// its journal. Some schedules also carry a poison scenario whose rows
// are always rejected. After every call the state machine's invariants
// hold (checkLeaseInvariants: at most one live lease per scenario). At
// the end honest workers must settle the sweep within a bounded number
// of leases — a hang is a failure — with every scenario exactly one
// journaled row or one quarantine, and, when nothing was quarantined,
// the stitched bytes equal to `suite -json`.
//
// Schedules are single-threaded and seeded, so a failing seed replays
// exactly: FARM_CHAOS_SEED offsets every seed, and the failure message
// names the value that makes the failing schedule the first one.
func TestLeaseExplorer(t *testing.T) {
	tii := loadTableII(t)
	dir := t.TempDir()
	off := chaosSeedOffset()
	if a, b := exploreSchedule(t, tii, dir, off), exploreSchedule(t, tii, dir, off); a != b {
		t.Fatalf("seed %d does not replay: transcripts differ\n%s\n---\n%s", off, a, b)
	}
	for i := uint64(1); i < explorerSchedules; i++ {
		exploreSchedule(t, tii, dir, off+i)
	}
}

// vworker is a virtual worker: the lease it believes it holds.
type vworker struct{ scenario, token string }

// exploreSchedule runs one seeded schedule and returns its transcript:
// every call and answer, in order.
func exploreSchedule(t *testing.T, tii *tableII, dir string, seed uint64) string {
	defer func() {
		if t.Failed() {
			t.Logf("failing schedule seed %d; replay it first with FARM_CHAOS_SEED=%d go test -run TestLeaseExplorer ./internal/farm/", seed, seed)
		}
	}()
	rng := faults.NewRand(seed)
	const ttl = time.Minute
	journal := filepath.Join(dir, fmt.Sprintf("sweep-%d.jsonl", seed))
	defer os.Remove(journal)
	cfg := Config{TTL: ttl, Journal: journal}
	poison := ""
	if rng.IntN(3) == 0 {
		cfg.MaxStrikes = 1 + rng.IntN(3)
		if rng.IntN(2) == 0 {
			poison = tii.names[rng.IntN(len(tii.names))]
		}
	}
	h := newLeaseHarness(t, tii.spec, cfg, tii.rows)
	defer func() { h.co.Close() }()

	workers := make([]vworker, 1+rng.IntN(3))
	for n := 10 + rng.IntN(40); n > 0; n-- {
		k := rng.IntN(len(workers))
		w := &workers[k]
		switch op := rng.IntN(40); {
		case op >= 39:
			h.restart()
		case op >= 36:
			h.co.Drain()
			h.note("drain")
		case op >= 30:
			h.clk.Advance(ttl + time.Millisecond)
		case op >= 27:
			h.clk.Advance(ttl / 3)
		case w.token == "":
			if r := h.lease(fmt.Sprintf("w%d", k)); r.Status == StatusLease {
				*w = vworker{r.Scenario, r.Token}
			}
		case op < 5:
			if !h.heartbeat(w.token) {
				*w = vworker{}
			}
		case op < 13:
			h.deliver(w.token, w.scenario, w.token, w.scenario == poison)
			*w = vworker{}
		case op < 17:
			// Another worker's token: the completion must settle w's
			// scenario and leave the other lease alone.
			h.deliver(workers[rng.IntN(len(workers))].token, w.scenario, w.token, w.scenario == poison)
			*w = vworker{}
		case op < 20:
			h.complete(w.token, w.scenario, true)
		case op < 24:
			h.fail(w.token, w.scenario)
			*w = vworker{}
		default:
			*w = vworker{} // crashed: the lease dies by expiry
		}
	}

	// Every lease settles a scenario or strikes a poison one, so at most
	// four leases per scenario (MaxStrikes ≤ 3, plus one more) and a few
	// waits must settle the sweep.
	h.finish(poison, 4*len(tii.names)+8)

	st := h.status()
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := offramps.ReadResumeIndex(f, tii.spec.Name)
	f.Close()
	if err != nil || ix.Torn || ix.Dups != 0 {
		t.Fatalf("journal torn=%v dups=%d err=%v\n%s", ix.Torn, ix.Dups, err, h.trace.String())
	}
	parked := make(map[string]bool)
	for _, q := range st.Quarantined {
		parked[q.Scenario] = true
	}
	for _, name := range tii.names {
		if _, ok := ix.Scenarios[name]; ok == parked[name] {
			t.Fatalf("%s journaled=%v quarantined=%v, want exactly one\n%s", name, ok, parked[name], h.trace.String())
		}
	}
	if poison != "" && !parked[poison] {
		t.Fatalf("poison scenario %s was not quarantined\n%s", poison, h.trace.String())
	}
	if len(parked) == 0 {
		rep, err := h.co.Report()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, tii.want) {
			t.Fatalf("stitched report differs from suite -json\n%s", h.trace.String())
		}
	}
	return h.trace.String()
}
