package offramps

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/fpga"
	"offramps/internal/sim"
	"offramps/internal/trojan"
)

func TestScenarioSpecSeedPolicy(t *testing.T) {
	if got := (ScenarioSpec{Seed: 42, SeedDelta: 7}).EffectiveSeed(100); got != 42 {
		t.Errorf("absolute seed = %d, want 42", got)
	}
	if got := (ScenarioSpec{SeedDelta: 7}).EffectiveSeed(100); got != 107 {
		t.Errorf("relative seed = %d, want 107", got)
	}
	if got := (ScenarioSpec{}).EffectiveSeed(100); got != 100 {
		t.Errorf("default seed = %d, want 100", got)
	}
}

func TestScenarioSpecCompile(t *testing.T) {
	spec := ScenarioSpec{
		Name:      "trojaned",
		SeedDelta: 3,
		Trojan:    &TrojanSpec{Name: "T2"},
		Detector:  &DetectorSpec{Name: "golden-free", Policy: "abort"},
		Tap:       "dual",
		Settle:    5 * sim.Second,
		Budget:    10 * sim.Second,
	}
	sc, err := spec.Compile(SpecContext{BaseSeed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "trojaned" || sc.Seed != 13 {
		t.Errorf("compiled name/seed = %q/%d", sc.Name, sc.Seed)
	}
	if sc.Trojan == nil || sc.Trojan(13) == nil {
		t.Error("trojan factory missing or returns nil")
	}
	if sc.Detector == nil {
		t.Fatal("detector factory missing")
	}
	if d, err := sc.Detector(); err != nil || d == nil {
		t.Errorf("detector build: %v", err)
	}
	if sc.Policy != AbortOnTrip {
		t.Errorf("policy = %v, want AbortOnTrip", sc.Policy)
	}
	if sc.Bypass || sc.Tap != fpga.TapDual || sc.Settle != 5*sim.Second || sc.Budget != 10*sim.Second {
		t.Errorf("rig = bypass %v, tap %v, settle %v, budget %v; want false, dual, 5s, 10s",
			sc.Bypass, sc.Tap, sc.Settle, sc.Budget)
	}
	off := false
	sc, err = ScenarioSpec{Name: "jumpers", MITM: &off}.Compile(SpecContext{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Bypass || sc.Tap != fpga.TapArduino || sc.Settle != 0 || sc.Budget != 0 {
		t.Errorf("mitm=false rig = bypass %v, tap %v, settle %v, budget %v; want true, arduino, 0, 0",
			sc.Bypass, sc.Tap, sc.Settle, sc.Budget)
	}
}

func TestScenarioSpecCompilePreservesCacheability(t *testing.T) {
	// A plain golden spec must compile to a scenario the golden cache can
	// memoize — the experiment suites depend on it.
	sc, err := ScenarioSpec{Name: "golden"}.Compile(SpecContext{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.goldenCacheable() {
		t.Error("plain compiled spec is not golden-cacheable")
	}
	// An explicit default tap leaves the rig at its default too.
	sc, err = ScenarioSpec{Name: "golden", Tap: "arduino"}.Compile(SpecContext{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.goldenCacheable() {
		t.Error("explicit arduino tap broke cacheability")
	}
}

func TestScenarioSpecCompileErrors(t *testing.T) {
	cases := []ScenarioSpec{
		{}, // no name
		{Name: "x", Trojan: &TrojanSpec{Name: "T99"}},                                // unknown trojan
		{Name: "x", Detector: &DetectorSpec{Name: "nope"}},                           // unknown detector
		{Name: "x", Detector: &DetectorSpec{Name: "golden-free", Policy: "explode"}}, // bad policy
		{Name: "x", Tap: "sideways"},                                                 // bad tap
		{Name: "x", Settle: -1},                                                      // negative settle
		{Name: "x", Program: ProgramSpec{Part: "warship"}},                           // unknown part
		{Name: "x", Program: ProgramSpec{Flaw3D: 99}},                                // bad flaw3d case
		{Name: "x", Program: ProgramSpec{Part: "testpart", File: "a.gcode"}},         // two sources
		{Name: "x", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "g"}},    // no resolver
	}
	for i, spec := range cases {
		if _, err := spec.Compile(SpecContext{BaseSeed: 1}); err == nil {
			t.Errorf("case %d: bad spec compiled: %+v", i, spec)
		}
	}

	mitm := false
	bad := ScenarioSpec{Name: "x", MITM: &mitm, Trojan: &TrojanSpec{Name: "T1"}}
	if _, err := bad.Compile(SpecContext{}); err == nil || !strings.Contains(err.Error(), "config error") {
		t.Errorf("trojan without MITM compiled: %v", err)
	}
	bad = ScenarioSpec{Name: "x", MITM: &mitm, Tap: "ramps"}
	if _, err := bad.Compile(SpecContext{}); err == nil || !strings.Contains(err.Error(), "config error") {
		t.Errorf("tap without MITM compiled: %v", err)
	}
	bad = ScenarioSpec{Name: "x", MITM: &mitm, Detector: &DetectorSpec{Name: "golden-free"}}
	if _, err := bad.Compile(SpecContext{}); err == nil || !strings.Contains(err.Error(), "config error") {
		t.Errorf("detector without MITM compiled: %v", err)
	}

	// Golden-referencing detectors must validate their params eagerly
	// too, even though the real reference capture only exists at run
	// time.
	goldens := func(string) *capture.Recording { return nil }
	bad = ScenarioSpec{Name: "x", Detector: &DetectorSpec{
		Name: "golden-monitor", Golden: "g", Params: json.RawMessage(`{"margni": 0.1}`),
	}}
	if _, err := bad.Compile(SpecContext{Goldens: goldens}); err == nil {
		t.Error("bad golden-detector params survived compilation")
	}
	ok := ScenarioSpec{Name: "x", Detector: &DetectorSpec{
		Name: "golden-monitor", Golden: "g", Params: json.RawMessage(`{"margin": 0.1}`),
	}}
	if _, err := ok.Compile(SpecContext{Goldens: goldens}); err != nil {
		t.Errorf("good golden-detector params rejected: %v", err)
	}
}

// TestScenarioSpecDetectorTapValidation: the tap-addressable detection
// negative paths. A detector bound to an untapped side, an attestation
// requested without the dual tap, a dual binding on a plain detector,
// and a side-bound detector without the MITM must all fail at compile
// time with "config error" diagnostics — and, like every Compile check,
// the outcome depends only on the spec's content, never on the order its
// fields were written in (exercised by permuting independent knobs).
func TestScenarioSpecDetectorTapValidation(t *testing.T) {
	bad := []struct {
		name string
		spec ScenarioSpec
	}{
		{"ramps binding on default arduino tap",
			ScenarioSpec{Name: "x", Detector: &DetectorSpec{Name: "golden-free", Tap: "ramps"}}},
		{"arduino binding on ramps tap",
			ScenarioSpec{Name: "x", Tap: "ramps", Detector: &DetectorSpec{Name: "golden-free", Tap: "arduino"}}},
		{"attestation without dual scenario tap",
			ScenarioSpec{Name: "x", Detector: &DetectorSpec{Name: "attestation", Tap: "dual"}}},
		{"attestation on single-side tap",
			ScenarioSpec{Name: "x", Tap: "ramps", Detector: &DetectorSpec{Name: "attestation", Tap: "dual"}}},
		{"attestation without a dual binding",
			ScenarioSpec{Name: "x", Tap: "dual", Detector: &DetectorSpec{Name: "attestation"}}},
		{"plain detector on the dual binding",
			ScenarioSpec{Name: "x", Tap: "dual", Detector: &DetectorSpec{Name: "golden-free", Tap: "dual"}}},
		{"dual binding without MITM",
			func() ScenarioSpec {
				mitm := false
				return ScenarioSpec{Name: "x", MITM: &mitm, Tap: "dual",
					Detector: &DetectorSpec{Name: "attestation", Tap: "dual"}}
			}()},
		{"side-bound detector without MITM",
			func() ScenarioSpec {
				mitm := false
				return ScenarioSpec{Name: "x", MITM: &mitm,
					Detector: &DetectorSpec{Name: "golden-free", Tap: "arduino"}}
			}()},
	}
	for _, tc := range bad {
		_, err := tc.spec.Compile(SpecContext{BaseSeed: 1})
		if err == nil || !strings.Contains(err.Error(), "config error") {
			t.Errorf("%s: err = %v, want a config error", tc.name, err)
		}
	}

	// Unknown binding vocabulary is its own diagnostic.
	if _, err := (ScenarioSpec{Name: "x", Detector: &DetectorSpec{Name: "golden-free", Tap: "sideways"}}).Compile(SpecContext{}); err == nil {
		t.Error("unknown detector tap accepted")
	}

	// The good twins compile: every side the scenario taps is bindable.
	good := []ScenarioSpec{
		{Name: "x", Detector: &DetectorSpec{Name: "golden-free", Tap: "arduino"}},
		{Name: "x", Tap: "ramps", Detector: &DetectorSpec{Name: "golden-free", Tap: "ramps"}},
		{Name: "x", Tap: "dual", Detector: &DetectorSpec{Name: "golden-free", Tap: "ramps"}},
		{Name: "x", Tap: "dual", Detector: &DetectorSpec{Name: "attestation", Tap: "dual"}},
	}
	for i, spec := range good {
		sc, err := spec.Compile(SpecContext{BaseSeed: 1})
		if err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
			continue
		}
		if spec.Detector.Tap == "dual" && sc.DetectorBind != BindDual {
			t.Errorf("good spec %d: DetectorBind = %v, want dual", i, sc.DetectorBind)
		}
	}

	// A compiled dual-attestation scenario with the json round trip: the
	// spec stays pure data.
	js := `{"name": "a", "tap": "dual", "trojan": {"name": "T2"}, "detector": {"name": "attestation", "tap": "dual", "policy": "abort"}}`
	var spec ScenarioSpec
	if err := json.Unmarshal([]byte(js), &spec); err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile(SpecContext{BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.DetectorBind != BindDual || sc.Policy != AbortOnTrip {
		t.Errorf("round-tripped spec compiled to bind=%v policy=%v", sc.DetectorBind, sc.Policy)
	}
}

func TestParseSuiteSpecStrict(t *testing.T) {
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [{"name": "a", "trjoan": {}}]}`), ""); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": []}`), ""); err == nil {
		t.Error("empty suite accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [{"name":"a"},{"name":"a"}]}`), ""); err == nil {
		t.Error("duplicate scenario names accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [{"name":"a"}], "compare": [{"golden":"a","suspect":"b"}]}`), ""); err == nil {
		t.Error("dangling compare reference accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [{"name":"a","detector":{"name":"golden-monitor","golden":"a"}}]}`), ""); err == nil {
		t.Error("self-golden accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [
		{"name":"a","detector":{"name":"golden-monitor","golden":"b"}},
		{"name":"b","detector":{"name":"golden-monitor","golden":"a"}}]}`), ""); err == nil {
		t.Error("golden reference cycle accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios": [{"name":"a"},{"name":"b"}],
		"compare": [{"golden":"a","suspect":"b","suspectTap":"dual"}]}`), ""); err == nil {
		t.Error("dual compare tap accepted (comparisons need one side)")
	}
	if _, err := ParseSuiteSpec([]byte(`{"budget": "-5s", "scenarios": [{"name":"a"}]}`), ""); err == nil {
		t.Error("negative suite budget accepted")
	}
	if _, err := ParseSuiteSpec([]byte(`{"scenarios":[{"name":"a"}]}{"scenarios":[{"name":"b"}]}`), ""); err == nil {
		t.Error("trailing content after the suite object accepted")
	}

	s, err := ParseSuiteSpec([]byte(`{
		"name": "ok",
		"baseSeed": 9,
		"budget": "20m",
		"scenarios": [
			{"name": "g"},
			{"name": "s", "seedDelta": 5, "trojan": {"name": "T2", "params": {"keepRatio": 0.8}}}
		],
		"compare": [{"golden": "g", "suspect": "s"}]
	}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseSeed != 9 || s.Budget != 20*60*sim.Second || len(s.Scenarios) != 2 {
		t.Errorf("parsed suite = %+v", s)
	}
}

// TestRunSuiteTwoWaves runs a miniature suite whose detector references a
// golden scenario, exercising wave partitioning and the registry-built
// live monitor end to end.
func TestRunSuiteTwoWaves(t *testing.T) {
	suite := &SuiteSpec{
		Name:     "waves",
		BaseSeed: 2,
		Scenarios: []ScenarioSpec{
			{Name: "golden"},
			{
				Name:      "suspect",
				Program:   ProgramSpec{Flaw3D: 1},
				SeedDelta: 50,
				Detector:  &DetectorSpec{Name: "golden-monitor", Golden: "golden", Policy: "abort"},
			},
		},
		Compare: []CompareSpec{{Golden: "golden", Suspect: "suspect"}},
	}
	rep, err := Campaign{}.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(rep.Results); err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Name != "golden" || rep.Results[1].Name != "suspect" {
		t.Fatalf("result order: %s, %s", rep.Results[0].Name, rep.Results[1].Name)
	}
	suspect := rep.Results[1].Result
	if !suspect.Aborted || !suspect.TrojanLikely {
		t.Errorf("live monitor did not abort the 50%% reduction (aborted=%v likely=%v)",
			suspect.Aborted, suspect.TrojanLikely)
	}
	// The post-run comparison sees the truncated capture and agrees.
	if cmp := rep.Comparisons[0]; cmp.Err != nil || !cmp.Report.TrojanLikely {
		t.Errorf("comparison verdict: %+v", cmp)
	}
	if !strings.Contains(rep.Format(), "TROJAN LIKELY") {
		t.Error("Format() missing verdict")
	}
}

// TestRunSuiteChainedGoldens runs a golden-reference chain (A ← B ← C):
// wave ordering must resolve transitively, with each dependent detector
// streaming against a reference printed in an earlier wave.
func TestRunSuiteChainedGoldens(t *testing.T) {
	suite := &SuiteSpec{
		Name:     "chain",
		BaseSeed: 3,
		Scenarios: []ScenarioSpec{
			// Spec order deliberately reversed vs dependency order.
			{Name: "c", SeedDelta: 2, Detector: &DetectorSpec{Name: "golden-comparator", Golden: "b"}},
			{Name: "b", SeedDelta: 1, Detector: &DetectorSpec{Name: "golden-comparator", Golden: "a"}},
			{Name: "a"},
		},
	}
	rep, err := Campaign{}.RunSuite(context.Background(), suite)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(rep.Results); err != nil {
		t.Fatalf("chained golden references failed: %v", err)
	}
	// Results keep spec order; b and c each carry their detector report.
	for i, want := range []string{"c", "b", "a"} {
		if rep.Results[i].Name != want {
			t.Errorf("result %d = %q, want %q", i, rep.Results[i].Name, want)
		}
	}
	for _, name := range []string{"c", "b"} {
		for _, r := range rep.Results {
			if r.Name == name && len(r.Result.Detections) != 1 {
				t.Errorf("%s carries %d detector reports, want 1", name, len(r.Result.Detections))
			}
		}
	}
}

// TestSuiteReportFormatPartial: a cancelled suite's report contains
// never-started scenarios (Result nil, Err nil); Format must render them
// without panicking.
func TestSuiteReportFormatPartial(t *testing.T) {
	rep := &SuiteReport{
		Suite: "partial",
		Results: []ScenarioResult{
			{Name: "never-ran", Seed: 7},
		},
	}
	if out := rep.Format(); !strings.Contains(out, "not run") {
		t.Errorf("partial report rendering = %q", out)
	}
}

// TestSpecCompiledTableIMatchesClosurePath asserts that Table I's T2
// scenario, compiled from examples/specs/table1.json, produces
// bit-identical results to a hand-built closure scenario — the spec
// compiler adds nothing to the run a closure describes.
func TestSpecCompiledTableIMatchesClosurePath(t *testing.T) {
	prog := mustTestPart(t)
	seed := uint64(11)

	table1, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", "table1.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	t2, ok := table1.FindScenario("T2")
	if !ok {
		t.Fatal("table1.json has no T2 scenario")
	}
	compiled, err := CompileSpecs(SpecContext{BaseSeed: seed}, []ScenarioSpec{t2})
	if err != nil {
		t.Fatal(err)
	}
	closure := []Scenario{{
		Name: "T2", Program: prog, Seed: seed,
		Trojan: func(s uint64) fpga.Trojan {
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		},
	}}

	ra, err := Campaign{}.Run(context.Background(), compiled)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Campaign{}.Run(context.Background(), closure)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(append(ra, rb...)); err != nil {
		t.Fatal(err)
	}
	a, b := ra[0].Result, rb[0].Result
	if a.Duration != b.Duration || a.Quality != b.Quality {
		t.Errorf("spec path diverged from closure path: %v/%v vs %v/%v",
			a.Duration, a.Quality, b.Duration, b.Quality)
	}
	if a.Recording.Len() != b.Recording.Len() {
		t.Fatalf("capture lengths differ: %d vs %d", a.Recording.Len(), b.Recording.Len())
	}
	for i := range a.Recording.Transactions {
		if a.Recording.Transactions[i] != b.Recording.Transactions[i] {
			t.Fatalf("transaction %d differs", i)
		}
	}
}
