package offramps

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzGridCap bounds what a fuzzed grid may expand to, measured by
// gridProduct, the bound Expand itself enforces at maxGridScenarios;
// the smaller cap keeps each fuzz input fast.
const fuzzGridCap = 256

// FuzzParseGridSpec feeds arbitrary bytes to the grid parser and
// expander. The contract under fuzzing: never panic; an expanded suite
// passes Validate; and for N = 1..4 every non-empty Shard(i, N)
// sub-suite passes Validate and carries the golden closure and
// comparisons of each scenario ShardOf assigns it. The seeds are the
// committed grid files plus one detector chain.
func FuzzParseGridSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("examples", "specs", "grid_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range append(paths, filepath.Join("cmd", "suite", "testdata", "grid_shard.json")) {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A live-detector chain (cells → mid → golden), which no committed
	// grid has, so the corpus also reaches the detector half of the
	// closure.
	f.Add([]byte(`{"name":"chain","extra":[{"name":"golden"},` +
		`{"name":"mid","detector":{"name":"golden-monitor","golden":"golden"}}],` +
		`"template":{"detector":{"name":"golden-monitor","golden":"mid"}},` +
		`"axes":{"trojans":[{"label":"clean"},{"name":"T2"}],"taps":["arduino","ramps"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGridSpec(data, "")
		if err != nil || gridProduct(g) > fuzzGridCap {
			return
		}
		if g.Name == "" {
			g.Name = "fuzz" // LoadSuiteOrGrid defaults it from the file name
		}
		suite, err := g.Expand()
		if err != nil {
			return
		}
		if err := suite.Validate(); err != nil {
			t.Fatalf("expanded suite fails Validate: %v", err)
		}
		for count := 1; count <= 4; count++ {
			for index := 1; index <= count; index++ {
				sub, err := suite.Shard(index, count)
				if err != nil {
					t.Fatalf("Shard(%d, %d): %v", index, count, err)
				}
				// A shard that owns nothing is empty, which Validate
				// rejects; the runner skips it.
				if len(sub.Scenarios) == 0 && len(sub.Compare) == 0 {
					continue
				}
				if err := sub.Validate(); err != nil {
					t.Fatalf("Shard(%d, %d) fails Validate: %v", index, count, err)
				}
				have := make(map[string]bool, len(sub.Scenarios)+len(sub.Compare))
				for _, sc := range sub.Scenarios {
					have[sc.Name] = true
				}
				for _, c := range sub.Compare {
					have[CompareKey(c.Golden, c.GoldenTap, c.Suspect, c.SuspectTap)] = true
				}
				for _, sc := range suite.Scenarios {
					if ShardOf(sc.Name, count) != index-1 {
						continue
					}
					for _, need := range goldenClosure(suite, sc.Name) {
						if !have[need] {
							t.Fatalf("Shard(%d, %d) owns %q but lacks %q", index, count, sc.Name, need)
						}
					}
				}
			}
		}
	})
}

// goldenClosure lists what a shard owning name must carry: the scenario,
// the key of every comparison it is the suspect of, and every golden
// those comparisons and the scenarios' live detectors reach,
// transitively.
func goldenClosure(s *SuiteSpec, name string) []string {
	var out []string
	seen := make(map[string]bool)
	var visit func(string)
	visit = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		if sc, ok := s.FindScenario(n); ok && sc.Detector != nil && sc.Detector.Golden != "" {
			visit(sc.Detector.Golden)
		}
	}
	visit(name)
	for _, c := range s.Compare {
		if c.Suspect == name {
			out = append(out, CompareKey(c.Golden, c.GoldenTap, c.Suspect, c.SuspectTap))
			visit(c.Golden)
		}
	}
	return out
}
