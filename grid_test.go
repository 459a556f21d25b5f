package offramps

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// testGrid is a three-axis sweep used by the expansion property tests:
// 2 programs × 3 trojans × 2 taps = 12 cells plus one extra golden.
func testGrid() *GridSpec {
	return &GridSpec{
		Name:     "prop-grid",
		BaseSeed: 1,
		Extra:    []ScenarioSpec{{Name: "golden"}},
		Axes: GridAxes{
			Programs: []ProgramAxis{
				{},
				{ProgramSpec: ProgramSpec{Flaw3D: 3}},
			},
			Trojans: []TrojanAxis{
				{Label: "clean"},
				{TrojanSpec: TrojanSpec{Name: "T2"}},
				{TrojanSpec: TrojanSpec{Name: "T5"}},
			},
			Taps: []string{"arduino", "ramps"},
		},
		SeedPolicy:  &GridSeedPolicy{DeltaStart: 10},
		CompareWith: "golden",
	}
}

// TestGridExpandDeterministic expands the same grid twice and requires
// identical suites — scenario for scenario and byte for byte. The whole
// shard/merge machinery rests on this property.
func TestGridExpandDeterministic(t *testing.T) {
	a, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two expansions differ:\n%+v\n%+v", a, b)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("expansion JSON differs:\n%s\n%s", aj, bj)
	}
}

// TestGridExpandCrossProduct checks the expansion's shape: the full
// cross-product, duplicate-free names, extras first, and the seeds
// innermost ordering.
func TestGridExpandCrossProduct(t *testing.T) {
	suite, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+2*3*2; got != want {
		t.Fatalf("scenarios = %d, want %d", got, want)
	}
	if suite.Scenarios[0].Name != "golden" {
		t.Errorf("extras must come first, got %q", suite.Scenarios[0].Name)
	}
	seen := make(map[string]bool)
	for _, sc := range suite.Scenarios {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	// Fixed axis order: program, then trojan, then tap.
	if got, want := suite.Scenarios[1].Name, "testpart/clean/arduino"; got != want {
		t.Errorf("first cell = %q, want %q", got, want)
	}
	if got, want := suite.Scenarios[2].Name, "testpart/clean/ramps"; got != want {
		t.Errorf("second cell = %q, want %q", got, want)
	}
	last := suite.Scenarios[len(suite.Scenarios)-1]
	if got, want := last.Name, "flaw3d-3/T5/ramps"; got != want {
		t.Errorf("last cell = %q, want %q", got, want)
	}
	// Seed policy: deltas follow full-product order.
	if got, want := suite.Scenarios[1].SeedDelta, uint64(10); got != want {
		t.Errorf("first cell delta = %d, want %d", got, want)
	}
	if got, want := last.SeedDelta, uint64(10+11); got != want {
		t.Errorf("last cell delta = %d, want %d", got, want)
	}
	// One auto-compare per cell against the golden.
	if got, want := len(suite.Compare), 12; got != want {
		t.Errorf("compares = %d, want %d", got, want)
	}
	if err := suite.Validate(); err != nil {
		t.Errorf("expanded suite invalid: %v", err)
	}
}

// TestGridFilters exercises include/exclude semantics: excludes trim the
// product, includes whitelist it, and seed-policy deltas do not shift
// when neighbours are filtered away.
func TestGridFilters(t *testing.T) {
	g := testGrid()
	g.Exclude = []GridFilter{{Trojan: "T5"}}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+2*2*2; got != want {
		t.Fatalf("after exclude: scenarios = %d, want %d", got, want)
	}
	for _, sc := range suite.Scenarios {
		if strings.Contains(sc.Name, "T5") {
			t.Errorf("excluded cell %q survived", sc.Name)
		}
	}
	// flaw3d-3/T2/arduino sat at full-product index 8 before filtering;
	// its delta must not shift because the T5 cells were excluded.
	for _, sc := range suite.Scenarios {
		if sc.Name == "flaw3d-3/T2/arduino" {
			if got, want := sc.SeedDelta, uint64(10+8); got != want {
				t.Errorf("filtered expansion shifted seed delta: %d, want %d", got, want)
			}
		}
	}

	g = testGrid()
	g.Include = []GridFilter{{Name: "*/T2/*"}, {Trojan: "clean", Tap: "ramps"}}
	suite, err = g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 4 T2 cells (glob) + 2 clean/ramps cells (label match) + golden.
	if got, want := len(suite.Scenarios), 1+4+2; got != want {
		t.Fatalf("after include: scenarios = %d, want %d:\n%+v", got, want, suite.Scenarios)
	}

	g = testGrid()
	g.Exclude = []GridFilter{{}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "empty include/exclude filter") {
		t.Errorf("empty filter accepted: %v", err)
	}

	g = testGrid()
	g.Include = []GridFilter{{Trojan: "no-such-trojan"}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "filters removed every cell") {
		t.Errorf("all-cells-filtered grid accepted: %v", err)
	}

	// A filter naming an axis the grid does not sweep would silently
	// never match — it must be rejected, not ignored.
	g = testGrid()
	g.Exclude = []GridFilter{{Detector: "attestation"}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "does not sweep") {
		t.Errorf("filter on unswept axis accepted: %v", err)
	}
}

// TestGridConflicts checks that a template field and the axis sweeping
// it cannot both be set, and that seed knobs are mutually exclusive.
func TestGridConflicts(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GridSpec)
		want string
	}{
		{"template trojan vs axis", func(g *GridSpec) { g.Template.Trojan = &TrojanSpec{Name: "T1"} }, "conflicts with template.trojan"},
		{"template tap vs axis", func(g *GridSpec) { g.Template.Tap = "dual" }, "conflicts with template.tap"},
		{"template program vs axis", func(g *GridSpec) { g.Template.Program = ProgramSpec{Flaw3D: 1} }, "conflicts with template.program"},
		{"seed policy vs template seed", func(g *GridSpec) { g.Template.Seed = 9 }, "seedPolicy conflicts"},
		{"seed policy vs seeds axis", func(g *GridSpec) { g.Axes.Seeds = &SeedAxis{From: 1, To: 3} }, "seedPolicy conflicts"},
		{"no name", func(g *GridSpec) { g.Name = "" }, "needs a name"},
	}
	for _, tc := range cases {
		g := testGrid()
		tc.mut(g)
		_, err := g.Expand()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSeedAxis checks range expansion and the absolute-seed-zero guard.
func TestSeedAxis(t *testing.T) {
	g := testGrid()
	g.SeedPolicy = nil
	g.Axes.Seeds = &SeedAxis{From: 3, To: 9, Step: 3}
	suite, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(suite.Scenarios), 1+12*3; got != want {
		t.Fatalf("scenarios = %d, want %d", got, want)
	}
	var seeds []uint64
	for _, sc := range suite.Scenarios[1:4] {
		seeds = append(seeds, sc.Seed)
	}
	if !reflect.DeepEqual(seeds, []uint64{3, 6, 9}) {
		t.Errorf("seeds innermost = %v, want [3 6 9]", seeds)
	}

	g.Axes.Seeds = &SeedAxis{Values: []uint64{0, 1}}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "seed 0 is reserved") {
		t.Errorf("absolute seed 0 accepted: %v", err)
	}
	g.Axes.Seeds = &SeedAxis{Values: []uint64{0, 1}, Delta: true}
	if _, err := g.Expand(); err != nil {
		t.Errorf("delta seed 0 rejected: %v", err)
	}
}

// TestParseGridSpecStrict mirrors the suite parser's strictness: unknown
// fields and trailing content fail loudly.
func TestParseGridSpecStrict(t *testing.T) {
	if _, err := ParseGridSpec([]byte(`{"name":"g","axes":{"tapps":["ramps"]}}`), ""); err == nil {
		t.Error("unknown axis field accepted")
	}
	if _, err := ParseGridSpec([]byte(`{"name":"g","axes":{}} {"second":true}`), ""); err == nil || !strings.Contains(err.Error(), "trailing content") {
		t.Errorf("trailing content accepted: %v", err)
	}
}

// TestShardPartitionExact is the sharding property test: for every shard
// count, the owned sets (by ShardOf) partition the suite's scenarios
// exactly — every scenario in exactly one shard, and in that shard's
// sub-suite — and comparisons follow their suspect.
func TestShardPartitionExact(t *testing.T) {
	suite, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for count := 1; count <= 5; count++ {
		owners := 0
		compareCount := 0
		for index := 1; index <= count; index++ {
			sh, err := suite.Shard(index, count)
			if err != nil {
				t.Fatal(err)
			}
			owns := func(name string) bool { return ShardOf(name, count) == index-1 }
			// Every owned scenario is in the shard's spec; every compare's
			// suspect is owned and its golden is present.
			inSpec := make(map[string]bool)
			for _, sc := range sh.Scenarios {
				inSpec[sc.Name] = true
			}
			for _, sc := range suite.Scenarios {
				if owns(sc.Name) {
					owners++
					if !inSpec[sc.Name] {
						t.Errorf("count=%d shard %d: owned %q missing from spec", count, index, sc.Name)
					}
				}
			}
			for _, cmp := range sh.Compare {
				if !owns(cmp.Suspect) {
					t.Errorf("count=%d shard %d: compare suspect %q not owned", count, index, cmp.Suspect)
				}
				if !inSpec[cmp.Golden] {
					t.Errorf("count=%d shard %d: compare golden %q not in spec", count, index, cmp.Golden)
				}
			}
			compareCount += len(sh.Compare)
		}
		if owners != len(suite.Scenarios) {
			t.Errorf("count=%d: %d scenarios owned, want %d", count, owners, len(suite.Scenarios))
		}
		if compareCount != len(suite.Compare) {
			t.Errorf("count=%d: %d compares across shards, want %d", count, compareCount, len(suite.Compare))
		}
	}
	if _, err := suite.Shard(0, 4); err == nil {
		t.Error("shard 0/4 accepted")
	}
	if _, err := suite.Shard(5, 4); err == nil {
		t.Error("shard 5/4 accepted")
	}
}

// TestShardGoldenClosure: a live detector's golden reference must travel
// with its scenario even when the golden hashes into another shard.
func TestShardGoldenClosure(t *testing.T) {
	suite := &SuiteSpec{
		Name: "closure",
		Scenarios: []ScenarioSpec{
			{Name: "root"},
			{Name: "mid", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "root"}},
			{Name: "leaf", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "mid"}},
		},
	}
	for count := 2; count <= 4; count++ {
		for index := 1; index <= count; index++ {
			sh, err := suite.Shard(index, count)
			if err != nil {
				t.Fatal(err)
			}
			inSpec := make(map[string]bool)
			for _, sc := range sh.Scenarios {
				inSpec[sc.Name] = true
			}
			owns := func(name string) bool { return ShardOf(name, count) == index-1 }
			if owns("leaf") && (!inSpec["mid"] || !inSpec["root"]) {
				t.Errorf("count=%d shard %d owns leaf but lacks its golden chain: %v", count, index, inSpec)
			}
			if owns("mid") && !inSpec["root"] {
				t.Errorf("count=%d shard %d owns mid but lacks root", count, index)
			}
		}
	}
}

// TestSubset: a single-name subset — what a farm lease resolves to —
// carries its full golden chain plus exactly the comparisons the named
// scenario draws as suspect; unknown names are refused.
func TestSubset(t *testing.T) {
	suite := &SuiteSpec{
		Name: "subset",
		Scenarios: []ScenarioSpec{
			{Name: "root"},
			{Name: "mid", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "root"}},
			{Name: "leaf", Detector: &DetectorSpec{Name: "golden-monitor", Golden: "mid"}},
		},
		Compare: []CompareSpec{
			{Golden: "root", Suspect: "leaf"},
			{Golden: "root", Suspect: "mid"},
		},
	}
	sub, err := suite.Subset("leaf")
	if err != nil {
		t.Fatal(err)
	}
	inSpec := make(map[string]bool)
	for _, sc := range sub.Scenarios {
		inSpec[sc.Name] = true
	}
	if !inSpec["leaf"] || !inSpec["mid"] || !inSpec["root"] {
		t.Errorf("sub-suite lacks the golden chain: %v", inSpec)
	}
	if len(sub.Compare) != 1 || sub.Compare[0].Suspect != "leaf" {
		t.Errorf("sub-suite compares = %v, want only leaf's", sub.Compare)
	}

	if _, err := suite.Subset("no-such"); err == nil {
		t.Error("Subset of an unknown scenario accepted")
	}
	// An empty subset is a valid (empty) shard — Shard delegates here and
	// a sweep can have more shards than scenarios.
	if empty, err := suite.Subset(); err != nil || len(empty.Scenarios) != 0 {
		t.Errorf("empty Subset = %v, %v; want an empty shard", empty, err)
	}

	// Subset and Shard agree: a shard's spec equals the Subset of the
	// names ShardOf assigns it (same closure, same canonical order).
	full, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	shard, err := full.Shard(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var owned []string
	for _, sc := range full.Scenarios {
		if ShardOf(sc.Name, 3) == 0 {
			owned = append(owned, sc.Name)
		}
	}
	viaSubset, err := full.Subset(owned...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSubset, shard) {
		t.Errorf("Subset(%v) = %+v, Shard(1, 3) = %+v", owned, viaSubset, shard)
	}
	// The grid's layout stays with the full suite: a slice of it runs
	// under the plain layout.
	if full.layout == nil || shard.layout != nil || viaSubset.layout != nil {
		t.Errorf("layouts: full %v, shard %v, subset %v; want only the full suite's", full.layout, shard.layout, viaSubset.layout)
	}
}

// TestParseShard checks the "i/N" notation.
func TestParseShard(t *testing.T) {
	if i, n, err := ParseShard("2/4"); err != nil || i != 2 || n != 4 {
		t.Errorf("ParseShard(2/4) = %d %d %v", i, n, err)
	}
	for _, bad := range []string{"", "3", "0/4", "5/4", "a/b", "1/0", "-1/4", "2/4x", "1/2/3", " 1/2", "2 /4"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestGridExpansionCeiling: a grid whose seed range spans 2^63 values
// is rejected by Expand before anything is materialized, and the bound
// counts extras and every axis.
func TestGridExpansionCeiling(t *testing.T) {
	g, err := ParseGridSpec([]byte(`{"name":"g","axes":{"seeds":{"from":0,"to":9223372036854775807}}}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Expand(); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("Expand of a 2^63-seed grid: err = %v, want the scenario ceiling", err)
	}
	for _, tc := range []struct {
		spec string
		want uint64
	}{
		{`{"axes":{}}`, 1},
		{`{"extra":[{"name":"a"},{"name":"b"}],"axes":{"programs":[{},{}],"taps":["arduino","ramps","dual"]}}`, 8},
		{`{"axes":{"seeds":{"from":10,"to":20,"step":5}}}`, 3},
		{`{"axes":{"seeds":{"to":18446744073709551615}}}`, math.MaxUint64},
		{`{"axes":{"taps":["ramps","dual"],"seeds":{"to":18446744073709551615,"step":2}}}`, math.MaxUint64},
	} {
		g, err := ParseGridSpec([]byte(tc.spec), "")
		if err != nil {
			t.Fatal(err)
		}
		if got := gridProduct(g); got != tc.want {
			t.Errorf("gridProduct(%s) = %d, want %d", tc.spec, got, tc.want)
		}
	}
}
