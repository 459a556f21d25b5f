package offramps

import (
	"context"
	"errors"
	"fmt"
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
