package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"offramps/internal/detect"
	"offramps/internal/fpga"
	"offramps/internal/goldenstore"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

// TestGoldenCacheKeySeparation verifies distinct seeds, programs, and
// budgets occupy distinct entries (content addressing, not name-based).
func TestGoldenCacheKeySeparation(t *testing.T) {
	prog := mustTestPart(t)
	flow, err := TestPartWithFlow(1.1)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	c := Campaign{Workers: 2, Cache: cache}
	scens := []Scenario{
		{Name: "a", Program: prog, Seed: 1},
		{Name: "b", Program: prog, Seed: 2},       // same program, new seed
		{Name: "c", Program: flow, Seed: 1},       // new program, same seed
		{Name: "a-again", Program: prog, Seed: 1}, // duplicate of a
	}
	results, err := c.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3 (a, b, c)", cache.Len())
	}
	if results[0].Result != results[3].Result {
		t.Error("duplicate golden scenario did not share the memoized result")
	}
	if results[0].Result.Recording.Len() == 0 {
		t.Error("cached golden has empty capture")
	}
}

// TestGoldenCacheSkipsNonGoldenScenarios verifies scenarios carrying a
// trojan or a detector bypass the cache entirely, while rig variants —
// settle, tap, bypass — memoize under their own keys, each apart from
// the default-rig golden of the same program and seed. A golden with
// its own Budget is cached under the effective budget: a campaign whose
// Budget equals it hits the same entry.
func TestGoldenCacheSkipsNonGoldenScenarios(t *testing.T) {
	prog := mustTestPart(t)
	cache := NewGoldenCache()
	skipped := []Scenario{
		{Name: "t2", Program: prog, Seed: 1, Trojan: func(uint64) fpga.Trojan {
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		}},
		{Name: "monitor", Program: prog, Seed: 1, Detector: func() (detect.Detector, error) {
			return detect.NewRuleEngine(detect.DefaultLimits())
		}},
	}
	results, err := Campaign{Workers: 1, Cache: cache}.Run(context.Background(), skipped)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(results); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Errorf("trojan/detector scenarios were cached: %d entries", cache.Len())
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
		t.Errorf("cache consulted for trojan/detector scenarios: %d hits / %d misses", hits, misses)
	}

	rigs := []Scenario{
		{Name: "default", Program: prog, Seed: 1},
		{Name: "settle", Program: prog, Seed: 1, Settle: 3 * sim.Second},
		{Name: "ramps-tap", Program: prog, Seed: 1, Tap: fpga.TapRAMPS},
		{Name: "dual-tap", Program: prog, Seed: 1, Tap: fpga.TapDual},
		{Name: "bypass", Program: prog, Seed: 1, Bypass: true},
	}
	first, err := Campaign{Workers: 2, Cache: cache}.Run(context.Background(), rigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(first); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != len(rigs) {
		t.Fatalf("rig variants: %d cache entries, want %d (one per rig)", cache.Len(), len(rigs))
	}
	again, err := Campaign{Workers: 2, Cache: cache}.Run(context.Background(), rigs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rigs {
		if again[i].Result != first[i].Result {
			t.Errorf("%s: rerun did not share the memoized result", rigs[i].Name)
		}
	}
	if hits, misses := cache.Stats(); hits != uint64(len(rigs)) || misses != uint64(len(rigs)) {
		t.Errorf("rig variants rerun: %d hits / %d misses, want %d / %d", hits, misses, len(rigs), len(rigs))
	}
	if first[4].Result.Recording != nil || first[0].Result.Recording.Len() == 0 {
		t.Error("bypass golden carries a capture, or the default golden none")
	}
	if rec := first[3].Result; rec.ArduinoRecording != rec.Recording || rec.RAMPSRecording == nil {
		t.Error("dual-tap golden lost its per-side captures")
	}

	cache = NewGoldenCache()
	const budget = 40 * 60 * sim.Second
	own, err := Campaign{Workers: 1, Cache: cache}.Run(context.Background(),
		[]Scenario{{Name: "own-budget", Program: prog, Seed: 1, Budget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(own); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("golden with its own budget: %d cache entries, want 1", cache.Len())
	}
	shared, err := Campaign{Workers: 1, Cache: cache, Budget: budget}.Run(context.Background(),
		[]Scenario{{Name: "campaign-budget", Program: prog, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(shared); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("campaign budget equal to the scenario's: %d hits / %d misses, want 1 / 1", hits, misses)
	}
	if own[0].Result != shared[0].Result {
		t.Error("equal effective budgets did not share the memoized result")
	}
}

// TestGoldenStoreSharedAcrossCaptureModes: a golden is one shape, so a
// golden a fingerprint-mode campaign persists serves a full-mode
// campaign in a fresh process — no simulation, identical report bytes.
func TestGoldenStoreSharedAcrossCaptureModes(t *testing.T) {
	prog := mustTestPart(t)
	scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
	dir := t.TempDir()
	run := func(mode CaptureMode) (*GoldenCache, []ScenarioResult) {
		t.Helper()
		store, err := goldenstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewGoldenCache()
		cache.AttachStore(store)
		res, err := Campaign{Workers: 1, Cache: cache, CaptureMode: mode}.Run(context.Background(), scens)
		if err != nil {
			t.Fatal(err)
		}
		if err := firstScenarioErr(res); err != nil {
			t.Fatal(err)
		}
		return cache, res
	}
	fpCache, fpRes := run(CaptureFingerprint)
	if fpCache.Sims() != 1 {
		t.Fatalf("cold fingerprint-mode campaign: %d simulations, want 1", fpCache.Sims())
	}
	if rec := fpRes[0].Result.Recording; rec == nil || rec.Len() == 0 {
		t.Error("golden run in a fingerprint-mode campaign did not record a full capture")
	}
	fullCache, fullRes := run(CaptureFull)
	if fullCache.Sims() != 0 {
		t.Errorf("full-mode campaign re-simulated the stored golden: %d simulations", fullCache.Sims())
	}
	if hits, _ := fullCache.StoreStats(); hits != 1 {
		t.Errorf("full-mode campaign: %d store hits, want 1", hits)
	}
	fpJSON, err := json.Marshal(fpRes)
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := json.Marshal(fullRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fpJSON, fullJSON) {
		t.Errorf("report bytes differ across capture modes:\n fingerprint %s\n full        %s", fpJSON, fullJSON)
	}
}

// TestGoldenCacheStoreCorruptFallsBackToSim: on-disk corruption of every
// persisted entry degrades to re-simulation — same bytes out, no error.
func TestGoldenCacheStoreCorruptFallsBackToSim(t *testing.T) {
	prog := mustTestPart(t)
	scens := []Scenario{{Name: "golden", Program: prog, Seed: 5}}
	dir := t.TempDir()

	store1, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewGoldenCache()
	cold.AttachStore(store1)
	coldRes, err := Campaign{Workers: 1, Cache: cold}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(coldRes); err != nil {
		t.Fatal(err)
	}

	// Trash every persisted entry in place.
	entries, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no persisted entries to corrupt (%v)", err)
	}
	for _, path := range entries {
		if err := os.WriteFile(path, []byte("rotten"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewGoldenCache()
	warm.AttachStore(store2)
	warmRes, err := Campaign{Workers: 1, Cache: warm}.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(warmRes); err != nil {
		t.Fatal(err)
	}
	if warm.Sims() != 1 {
		t.Errorf("corrupt store did not fall back to simulation: sims = %d", warm.Sims())
	}
	if !reflect.DeepEqual(coldRes[0].Result, warmRes[0].Result) {
		t.Error("re-simulated result differs from the original")
	}
	// The fallback path healed the store: a third process hits clean.
	store3, err := goldenstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healed := NewGoldenCache()
	healed.AttachStore(store3)
	if _, err := (Campaign{Workers: 1, Cache: healed}).Run(context.Background(), scens); err != nil {
		t.Fatal(err)
	}
	if healed.Sims() != 0 {
		t.Errorf("healed store still simulating: sims = %d", healed.Sims())
	}
}

// TestGoldenCacheFailedOwnerWaitersRetry is the joined-waiter bugfix
// test: when the first caller's computation fails, callers that joined
// it must re-attempt the key themselves rather than inherit the owner's
// error — and a join served no result must not count as a hit.
func TestGoldenCacheFailedOwnerWaitersRetry(t *testing.T) {
	gc := NewGoldenCache()
	key := simKey{seed: 42}
	ownerIn := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	fresh := func() (*Result, error) {
		if calls.Add(1) == 1 {
			close(ownerIn)
			<-release
			return nil, errors.New("transient owner failure")
		}
		return &Result{Completed: true}, nil
	}

	ownerErr := make(chan error, 1)
	go func() {
		_, err := gc.run(key, fresh)
		ownerErr <- err
	}()
	<-ownerIn

	// Waiters join the in-flight (doomed) computation.
	const waiters = 4
	var wg sync.WaitGroup
	type outcome struct {
		res *Result
		err error
	}
	outcomes := make(chan outcome, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := gc.run(key, fresh)
			outcomes <- outcome{res, err}
		}()
	}
	close(release)
	wg.Wait()
	close(outcomes)

	if err := <-ownerErr; err == nil {
		t.Error("owner's own failure was swallowed")
	}
	for o := range outcomes {
		if o.err != nil {
			t.Errorf("waiter inherited the owner's error: %v", o.err)
		} else if o.res == nil || !o.res.Completed {
			t.Errorf("waiter served a wrong result: %+v", o.res)
		}
	}
	if gc.Len() != 1 {
		t.Errorf("cache len = %d after retry, want 1", gc.Len())
	}
	// Hits only for joins actually served a settled result; the failed
	// round contributes misses (owner + re-attempting waiters), never hits.
	hits, misses := gc.Stats()
	if hits+misses != waiters+1 {
		t.Errorf("stats = %d hits / %d misses, want %d total", hits, misses, waiters+1)
	}
	if misses < 2 {
		t.Errorf("misses = %d, want >= 2 (failed owner + retry owner)", misses)
	}
	if int(calls.Load()) < 2 {
		t.Errorf("fresh called %d times, want >= 2", calls.Load())
	}
	// The settled entry now serves hits.
	before := calls.Load()
	if res, err := gc.run(key, fresh); err != nil || !res.Completed {
		t.Fatalf("settled entry not served: %v, %v", res, err)
	}
	if calls.Load() != before {
		t.Error("settled entry recomputed")
	}
}

// TestGoldenCacheChurnInvariants drives the cache through concurrent
// hits, misses and failures (run under -race in CI) and checks the
// accounting invariants afterwards: bytes never negative, and once
// quiescent exactly one settled result's estimate per entry.
func TestGoldenCacheChurnInvariants(t *testing.T) {
	gc := NewGoldenCache()
	key := func(b byte) simKey { return simKey{program: [32]byte{b}} }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := byte((g + i) % 8)
				fail := (g+i)%5 == 0
				res, err := gc.run(key(b), func() (*Result, error) {
					if fail {
						return nil, errors.New("synthetic failure")
					}
					return &Result{}, nil
				})
				// A caller that owns a failing compute gets the error;
				// everyone served must get a result.
				if err == nil && res == nil {
					t.Error("nil result without error")
					return
				}
				if gc.Bytes() < 0 {
					t.Errorf("bytes negative mid-churn: %d", gc.Bytes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if gc.Bytes() < 0 {
		t.Errorf("bytes negative after churn: %d", gc.Bytes())
	}
	if want := int64(gc.Len()) * resultBytes(&Result{}); gc.Len() == 0 || gc.Bytes() != want {
		t.Errorf("bytes = %d for %d entries, want %d", gc.Bytes(), gc.Len(), want)
	}
	hits, misses := gc.Stats()
	if hits+misses == 0 {
		t.Error("no traffic recorded")
	}
}
