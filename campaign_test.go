package offramps

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"offramps/internal/detect"
	"offramps/internal/fpga"
	"offramps/internal/trojan"
)

// campaignScenarios builds a small mixed grid: clean prints, a trojaned
// print, and a detector-attached print. Factories make the slice safely
// reusable across campaign runs.
func campaignScenarios(t *testing.T) []Scenario {
	t.Helper()
	prog := mustTestPart(t)
	return []Scenario{
		{Name: "clean", Program: prog, Seed: 1},
		{Name: "t2", Program: prog, Seed: 1, Trojan: func(seed uint64) fpga.Trojan {
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		}},
		{Name: "golden-free", Program: prog, Seed: 2,
			Detector: func() (detect.Detector, error) { return detect.NewRuleEngine(detect.DefaultLimits()) },
			Policy:   FlagOnly},
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	scens := campaignScenarios(t)
	run := func(workers int) []ScenarioResult {
		results, err := Campaign{Workers: workers}.Run(context.Background(), scens)
		if err != nil {
			t.Fatal(err)
		}
		if err := firstScenarioErr(results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	serial := run(1)
	parallel := run(4)

	if len(serial) != len(scens) || len(parallel) != len(scens) {
		t.Fatalf("result counts: %d, %d, want %d", len(serial), len(parallel), len(scens))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Name != scens[i].Name || b.Name != scens[i].Name {
			t.Fatalf("result %d out of order: %q vs %q", i, a.Name, b.Name)
		}
		if a.Seed != b.Seed {
			t.Errorf("%s: seeds differ: %d vs %d", a.Name, a.Seed, b.Seed)
		}
		if a.Result.Duration != b.Result.Duration {
			t.Errorf("%s: durations differ: %v vs %v", a.Name, a.Result.Duration, b.Result.Duration)
		}
		if a.Result.Quality != b.Result.Quality {
			t.Errorf("%s: quality differs: %v vs %v", a.Name, a.Result.Quality, b.Result.Quality)
		}
		ra, rb := a.Result.Recording, b.Result.Recording
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: capture lengths differ: %d vs %d", a.Name, ra.Len(), rb.Len())
		}
		for j := range ra.Transactions {
			if ra.Transactions[j] != rb.Transactions[j] {
				t.Fatalf("%s: transaction %d differs", a.Name, j)
			}
		}
		if !reflect.DeepEqual(a.Result.Detections, b.Result.Detections) {
			t.Errorf("%s: detection reports differ", a.Name)
		}
	}
	// The trojaned scenario must actually differ from the clean one —
	// determinism must not come from scenarios collapsing together.
	if serial[0].Result.Quality.TotalFilament <= serial[1].Result.Quality.TotalFilament {
		t.Error("T2 scenario extruded at least as much as the clean print")
	}
	// And the detector-attached scenario must carry its report.
	if len(serial[2].Result.Detections) != 1 {
		t.Fatalf("golden-free scenario has %d reports", len(serial[2].Result.Detections))
	}
	if serial[2].Result.Detections[0].TrojanLikely {
		t.Error("clean print flagged by the rule engine")
	}
}

func TestCampaignReportsScenarioErrors(t *testing.T) {
	prog := mustTestPart(t)
	scens := []Scenario{
		{Name: "bad-trojan", Program: prog, Seed: 1, Trojan: func(uint64) fpga.Trojan { return nil }},
		{Name: "ok", Program: prog, Seed: 1},
	}
	results, err := Campaign{Workers: 2}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("nil trojan factory not reported")
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Error("healthy scenario poisoned by its neighbour")
	}
	if firstScenarioErr(results) == nil {
		t.Error("firstScenarioErr missed the failure")
	}
}

func TestCampaignCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Campaign{}.Run(ctx, campaignScenarios(t))
	if err == nil {
		t.Error("cancelled campaign returned no error")
	}
}

// TestCampaignCancelMidPool cancels the context while the worker pool is
// mid-campaign: the pool must drain (no goroutine leak), Run must report
// the cancellation, in-flight scenarios must carry the cancellation error
// in their slot, and scenarios never started must be left untouched.
func TestCampaignCancelMidPool(t *testing.T) {
	prog := mustTestPart(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 6
	scens := make([]Scenario, n)
	for i := range scens {
		scens[i] = Scenario{Name: fmt.Sprintf("s%d", i), Program: prog, Seed: uint64(i) + 1}
	}
	// The first scenario pulls the plug as soon as its worker builds its
	// trojan, so the cancellation lands while the pool is busy.
	scens[0].Trojan = func(uint64) fpga.Trojan {
		cancel()
		return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
	}

	before := runtime.NumGoroutine()
	results, err := Campaign{Workers: 2}.Run(ctx, scens)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if len(results) != n {
		t.Fatalf("results = %d slots, want %d", len(results), n)
	}

	var cancelled, unstarted, finished int
	for i, r := range results {
		switch {
		case r.Name == "" && r.Err == nil && r.Result == nil:
			unstarted++
		case r.Err != nil:
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("slot %d error is not the cancellation: %v", i, r.Err)
			}
			cancelled++
		case r.Result != nil:
			finished++ // raced the cancel and completed — legitimate
		default:
			t.Errorf("slot %d in impossible state: %+v", i, r)
		}
	}
	if cancelled == 0 {
		t.Error("no in-flight scenario carried the cancellation error")
	}
	if unstarted == 0 {
		t.Error("every scenario started despite the early cancel")
	}
	t.Logf("cancelled=%d unstarted=%d finished=%d", cancelled, unstarted, finished)

	// Run returns only after the pool's WaitGroup drains; give the
	// runtime a moment to reap worker stacks, then demand no leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}
