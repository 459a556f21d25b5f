package farm

import (
	"bytes"
	"context"
	"encoding/json"
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
	"offramps/internal/farm/faults"
)

// chaosSeedOffset shifts every transport and jitter seed in the chaos
// suite, so CI can sweep fault schedules (FARM_CHAOS_SEED matrix)
// without touching the base seeds the byte-identity assertion anchors
// to. Unset or unparsable means offset 0 — the committed schedule.
func chaosSeedOffset() uint64 {
	v, err := strconv.ParseUint(os.Getenv("FARM_CHAOS_SEED"), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// chaosRules is the scripted fault schedule for the byte-identity run:
// every fault kind the transport knows, at rates low enough that the
// worker's backoff always outlasts them. Duplicate is confined to
// idempotent paths — duplicating a lease request would grant a phantom
// lease whose scenario sits out a full TTL.
func chaosRules() []faults.Rule {
	return []faults.Rule{
		{Path: PathComplete, Kind: faults.Duplicate, P: 0.35},
		{Path: PathHeartbeat, Kind: faults.Duplicate, P: 0.35},
		{Kind: faults.Drop, P: 0.15},
		{Kind: faults.Err500, P: 0.1},
		{Kind: faults.Truncate, P: 0.1},
		{Kind: faults.Delay, Delay: 2 * time.Millisecond, P: 0.15},
	}
}

// runChaosWorker runs one worker wired through a seeded fault transport
// and reports its error (nil on a clean exit).
func runChaosWorker(url, name string, seed uint64, tr *faults.Transport) error {
	w := &Worker{
		Client:     &Client{Base: url, HTTP: &http.Client{Transport: tr}},
		Name:       name,
		Seed:       seed,
		Poll:       5 * time.Millisecond,
		Backoff:    faults.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond},
		MaxRetries: 12,
	}
	_, err := w.Run(context.Background())
	return err
}

// TestFarmChaosByteIdentity is the acceptance gate for the fault
// hardening: a sweep that suffers a mid-scenario worker kill, a
// heartbeat blackout past the TTL, a coordinator kill, a torn journal
// tail plus a duplicated journal row, and then finishes under workers
// whose every request runs a gauntlet of drops, delays, 5xx, truncation
// and duplicate delivery — and still stitches the exact bytes of an
// uninterrupted local run.
func TestFarmChaosByteIdentity(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := localDoc(t, loadFarmSuite(t, seed))
			journal := filepath.Join(t.TempDir(), "sweep.jsonl")

			// Phase 1: a short-TTL coordinator takes real damage. One lease
			// is granted and abandoned (worker killed mid-scenario); one
			// worker completes a scenario with every heartbeat dropped; one
			// clean worker banks another scenario. Then the coordinator
			// "dies". Expiry runs on a fake clock: the doomed lease dies by
			// Advance, deterministically, and the live workers' leases
			// cannot expire underneath them however slowly the sims run
			// (the race detector stretches them by an order of magnitude).
			clk := faults.NewFakeClock()
			co1, err := NewCoordinator(loadFarmSuite(t, seed), Config{
				TTL: 120 * time.Millisecond, Journal: journal, SyncEvery: 1, MaxStrikes: 25,
				Clock: clk,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv1 := httptest.NewServer(co1.Handler())
			cl := &Client{Base: srv1.URL}
			doomed, err := cl.Lease(context.Background(), "doomed")
			if err != nil || doomed.Status != StatusLease {
				t.Fatalf("doomed lease: %+v err=%v", doomed, err)
			}
			// One live heartbeat, then blackout: the worker goes silent past
			// the TTL, which must kill the lease.
			if ok, err := cl.Heartbeat(context.Background(), doomed.Token); err != nil || !ok {
				t.Fatalf("live heartbeat refused: ok=%v err=%v", ok, err)
			}
			clk.Advance(130 * time.Millisecond)
			if ok, err := cl.Heartbeat(context.Background(), doomed.Token); err != nil || ok {
				t.Fatalf("blacked-out lease still alive: ok=%v err=%v", ok, err)
			}

			// A worker whose every heartbeat is dropped in flight still
			// completes its scenario — completion, not the heartbeat stream,
			// is what lands rows. (Phase 2 covers the harsher variant where
			// the lease actually expires mid-run and first-wins absorbs it.)
			blackout := faults.NewTransport(seed+chaosSeedOffset(), faults.Rule{Path: PathHeartbeat, Kind: faults.Drop})
			w := &Worker{
				Client:  &Client{Base: srv1.URL, HTTP: &http.Client{Transport: blackout}},
				Name:    "blackout",
				Poll:    5 * time.Millisecond,
				Backoff: faults.Backoff{Base: time.Millisecond, Cap: 5 * time.Millisecond},
				Max:     1,
			}
			if _, err := w.Run(context.Background()); err != nil {
				t.Fatalf("blackout worker: %v", err)
			}
			partial := &Worker{Client: &Client{Base: srv1.URL}, Name: "partial", Poll: 5 * time.Millisecond, Max: 1}
			if _, err := partial.Run(context.Background()); err != nil {
				t.Fatalf("partial worker: %v", err)
			}
			srv1.Close()
			if err := co1.Close(); err != nil {
				t.Fatal(err)
			}

			// Crash damage to the journal: a replayed (duplicate) row and a
			// torn half-written tail, both of which resume must compact away.
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 3 {
				t.Fatalf("phase 1 journaled only %d rows:\n%s", len(lines), data)
			}
			damaged := append([]byte(nil), data...)
			damaged = append(damaged, []byte(lines[0]+"\n")...) // duplicate row
			damaged = append(damaged, []byte(lines[1][:12])...) // torn tail, no newline
			if err := os.WriteFile(journal, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			// Phase 2: resume. The coordinator must compact the damage out,
			// re-queue only the missing scenarios, and finish the sweep under
			// two workers whose transport misbehaves on every path. The TTL
			// stays short because the gauntlet can eat a lease *reply* (the
			// grant happened, the worker never saw it): that scenario is
			// stuck until expiry, and expiry is the designed recovery.
			co2, err := NewCoordinator(loadFarmSuite(t, seed), Config{
				TTL: time.Second, Journal: journal, SyncEvery: 1, MaxStrikes: 25,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer co2.Close()
			if co2.Compacted() != 2 {
				t.Errorf("Compacted() = %d, want 2 (the duplicate and the torn tail)", co2.Compacted())
			}
			if co2.Resumed() != 2 {
				t.Errorf("Resumed() = %d, want 2", co2.Resumed())
			}
			srv2 := httptest.NewServer(co2.Handler())
			defer srv2.Close()

			off := chaosSeedOffset()
			transports := []*faults.Transport{
				faults.NewTransport(seed*1000+1+off, chaosRules()...),
				faults.NewTransport(seed*1000+2+off, chaosRules()...),
			}
			var wg sync.WaitGroup
			errs := make(chan error, len(transports))
			for i, tr := range transports {
				wg.Add(1)
				go func(i int, tr *faults.Transport) {
					defer wg.Done()
					if err := runChaosWorker(srv2.URL, fmt.Sprintf("chaos%d", i), seed*10+uint64(i)+off, tr); err != nil {
						errs <- fmt.Errorf("chaos worker %d: %w", i, err)
					}
				}(i, tr)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			select {
			case <-co2.Done():
			default:
				t.Fatal("chaos workers exited but the sweep is not done")
			}
			injected := 0
			for _, tr := range transports {
				for _, n := range tr.Injected() {
					injected += n
				}
			}
			if injected == 0 {
				t.Error("chaos phase injected no faults — the schedule is not exercising anything")
			}
			t.Logf("chaos phase injected %d faults", injected)

			// The acceptance bar: byte identity with the fault-free run.
			if got := stitchDoc(t, co2); !bytes.Equal(got, want) {
				t.Errorf("chaos sweep report differs from the fault-free local run\nlocal: %d bytes\nchaos: %d bytes", len(want), len(got))
			}
			if len(co2.Quarantined()) != 0 {
				t.Errorf("chaos quarantined scenarios: %+v (strikes budget too low for the schedule)", co2.Quarantined())
			}

			// And the journal came out of it clean: no torn tail, no
			// duplicate rows, full coverage.
			if err := co2.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(journal)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := offramps.ReadResumeIndex(f, "farm-grid")
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ix.Torn || ix.Dups != 0 {
				t.Errorf("final journal torn=%v dups=%d, want clean", ix.Torn, ix.Dups)
			}
			if missing := ix.Missing(loadFarmSuite(t, seed)); len(missing) != 0 {
				t.Errorf("final journal is missing %v", missing)
			}
		})
	}
}

// TestFarmPoisonQuarantine scripts a scenario whose completion the
// transport always rejects: the worker strikes it out via the fail
// endpoint, the coordinator quarantines it after MaxStrikes leases, the
// sweep settles (never requeueing it indefinitely), and the stitched
// report carries loud error rows for the scenario and its comparisons
// while every healthy scenario still reports real rows.
func TestFarmPoisonQuarantine(t *testing.T) {
	spec := loadFarmSuite(t, 1)
	if len(spec.Compare) == 0 {
		t.Fatal("farm grid has no comparisons; pick a different poison target")
	}
	poison := spec.Compare[0].Suspect

	co, err := NewCoordinator(spec, Config{TTL: 30 * time.Second, MaxStrikes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	// Every completion of the poison scenario — and only it — dies with
	// a 500; the fail endpoint stays reachable, so the worker's strike
	// reports land.
	tr := faults.NewTransport(1, faults.Rule{
		Path: PathComplete,
		Body: fmt.Sprintf(`"scenario":%q`, poison),
		Kind: faults.Err500,
	})
	w := &Worker{
		Client:     &Client{Base: srv.URL, HTTP: &http.Client{Transport: tr}},
		Name:       "p1",
		Poll:       2 * time.Millisecond,
		Backoff:    faults.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond},
		MaxRetries: 3,
	}
	n, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("worker must survive a poison scenario, got: %v", err)
	}
	if want := len(spec.Scenarios) - 1; n != want {
		t.Errorf("worker completed %d scenarios, want %d (all but the poison one)", n, want)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("sweep did not settle — the poison scenario is being requeued indefinitely")
	}

	qs := co.Quarantined()
	if len(qs) != 1 || qs[0].Scenario != poison || qs[0].Strikes != 2 {
		t.Fatalf("Quarantined() = %+v, want %q with 2 strikes", qs, poison)
	}

	// The quarantine is visible on the status endpoint.
	resp, err := http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	var status StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(status.Quarantined) != 1 || status.Quarantined[0].Scenario != poison {
		t.Errorf("status.Quarantined = %+v, want %q", status.Quarantined, poison)
	}
	if status.Done != len(spec.Scenarios)-1 {
		t.Errorf("status.Done = %d, want %d", status.Done, len(spec.Scenarios)-1)
	}

	// The degraded report still stitches — with the poison scenario as an
	// error row, its comparisons as error comparisons, and FirstError
	// non-nil so a farmed run exits non-zero like a local one would.
	rep, err := co.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(spec.Scenarios) {
		t.Fatalf("report has %d rows, want %d", len(rep.Results), len(spec.Scenarios))
	}
	errorRows := 0
	for _, raw := range rep.Results {
		var head struct{ Name, Err string }
		if err := json.Unmarshal(raw, &head); err != nil {
			t.Fatal(err)
		}
		if head.Name == poison {
			if !strings.Contains(head.Err, "quarantined after 2 failed leases") {
				t.Errorf("poison row error = %q, want a quarantine message", head.Err)
			}
			errorRows++
		} else if head.Err != "" {
			t.Errorf("healthy scenario %q carries error %q", head.Name, head.Err)
		}
	}
	if errorRows != 1 {
		t.Errorf("report has %d poison rows, want 1", errorRows)
	}
	errorCompares := 0
	for _, raw := range rep.Comparisons {
		var head struct {
			Golden  string `json:"golden"`
			Suspect string `json:"suspect"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			t.Fatal(err)
		}
		if head.Golden == poison || head.Suspect == poison {
			if !strings.Contains(head.Error, "quarantined") {
				t.Errorf("comparison %s vs %s touching the poison scenario has error %q", head.Golden, head.Suspect, head.Error)
			}
			errorCompares++
		} else if head.Error != "" {
			t.Errorf("healthy comparison %s vs %s carries error %q", head.Golden, head.Suspect, head.Error)
		}
	}
	if errorCompares == 0 {
		t.Error("no comparison rows reflect the quarantine")
	}
	if err := rep.FirstError(); err == nil {
		t.Error("FirstError() = nil for a degraded sweep")
	} else if !strings.Contains(err.Error(), poison) {
		t.Errorf("FirstError() = %v, want it to name %q", err, poison)
	}
}
