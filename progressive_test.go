package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"offramps/internal/sched"
)

// loadSweepLayout loads the committed multi-seed Table II sweep grid
// fresh for each use, so runs never share spec state.
func loadSweepLayout(t *testing.T) (*SuiteSpec, *sched.Grid) {
	t.Helper()
	suite, layout, err := LoadSuiteOrGridLayout(filepath.Join("examples", "specs", "grid_tableii_sweep.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	return suite, layout
}

// suiteDoc serializes a report exactly as `suite -json` writes it — the
// unit of every byte-identity claim below.
func suiteDoc(t *testing.T, rep *SuiteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	doc := struct {
		Suites []*SuiteReport `json:"suites"`
	}{[]*SuiteReport{rep}}
	if err := EncodeReport(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// axisNeighbours reports whether two cell coordinates differ by exactly
// one step on exactly one axis — the scheduler's boundary relation,
// re-derived independently here.
func axisNeighbours(a, b []int) bool {
	diff := 0
	for i := range a {
		switch d := a[i] - b[i]; {
		case d == 0:
		case d == 1 || d == -1:
			diff++
		default:
			return false
		}
	}
	return diff == 1
}

// TestProgressiveSweep runs the committed sweep grid once in full and
// checks the progressive scheduler against it: unlimited budget
// reproduces the naive run byte for byte, and a half-budget early-stop
// run still covers every cell, promotes every detection-boundary cell,
// and executes rows byte-identical to the full run's.
func TestProgressiveSweep(t *testing.T) {
	ctx := context.Background()
	// One cache across all runs: goldens are bit-identical under a fixed
	// key, so sharing only removes redundant simulations.
	cache := NewGoldenCache()

	fullSuite, layout := loadSweepLayout(t)
	full, err := Campaign{Cache: cache}.RunSuite(ctx, fullSuite)
	if err != nil {
		t.Fatal(err)
	}
	if err := firstScenarioErr(full.Results); err != nil {
		t.Fatal(err)
	}
	fullDoc := suiteDoc(t, full)
	fullRows := make(map[string]ScenarioResult, len(full.Results))
	for _, r := range full.Results {
		fullRows[r.Name] = r
	}

	// The reference boundary set, derived from the full run: a cell is
	// on a detection boundary when its first seed's verdict differs from
	// an axis-neighbour's.
	fullVerdicts := make([]sched.Verdict, len(layout.Cells))
	cmpCache := make(map[int]CompareResult)
	for i, c := range layout.Cells {
		fullVerdicts[i] = progressiveVerdict(c.Seeds[0], fullSuite, fullRows, cmpCache)
	}
	boundary := make(map[string]bool)
	for i, a := range layout.Cells {
		for j, b := range layout.Cells {
			if i != j && axisNeighbours(a.Coord, b.Coord) && fullVerdicts[i] != fullVerdicts[j] {
				boundary[a.Key] = true
			}
		}
	}
	if len(boundary) == 0 {
		t.Fatal("the sweep grid has no detection boundary; the refinement test would be vacuous")
	}

	t.Run("full budget matches RunSuite", func(t *testing.T) {
		suite, lay := loadSweepLayout(t)
		rep, st, err := Campaign{Cache: cache}.RunSuiteProgressive(ctx, suite, lay, sched.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != 0 || st.Executed != st.Total {
			t.Errorf("stats = %+v, want everything executed", st.Stats)
		}
		if got := suiteDoc(t, rep); !bytes.Equal(got, fullDoc) {
			t.Errorf("full-budget progressive report differs from RunSuite\nnaive: %d bytes\nprog:  %d bytes", len(fullDoc), len(got))
		}
	})

	t.Run("half budget covers every cell and matches executed rows", func(t *testing.T) {
		suite, lay := loadSweepLayout(t)
		budget := len(suite.Scenarios) / 2
		cfg := sched.Config{Budget: budget, EarlyStopK: 2}
		rep, st, err := Campaign{Cache: cache}.RunSuiteProgressive(ctx, suite, lay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Covered != st.Cells {
			t.Errorf("covered %d of %d cells, want full coverage regardless of budget", st.Covered, st.Cells)
		}
		if st.Executed > budget {
			t.Errorf("executed %d scenarios over budget %d", st.Executed, budget)
		}
		if st.Boundary != len(boundary) {
			t.Errorf("scheduler found %d boundary cells, full run has %d", st.Boundary, len(boundary))
		}

		executed := make(map[string]int)
		for _, r := range rep.Results {
			if r.Err != nil && IsSkippedResult(r.Err.Error()) {
				continue
			}
			// Every executed row must be byte-identical to the full run's
			// row for the same scenario.
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(fullRows[r.Name])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("scenario %s: progressive row differs from the full run's\nfull: %s\nprog: %s", r.Name, want, got)
			}
			for _, c := range lay.Cells {
				for _, s := range c.Seeds {
					if s == r.Name {
						executed[c.Key]++
					}
				}
			}
		}
		// Every detection-boundary cell of the full sweep was promoted:
		// refinement reached it before any non-boundary cell, so under a
		// budget with any refinement room it holds more than one seed.
		for key := range boundary {
			if executed[key] < 2 {
				t.Errorf("boundary cell %s executed %d seeds, want refinement (≥ 2)", key, executed[key])
			}
		}

		// Fixed (spec, budget, K) is deterministic: a rerun with a
		// different worker count produces the same bytes.
		repDoc := suiteDoc(t, rep)
		suite3, lay3 := loadSweepLayout(t)
		again, _, err := Campaign{Cache: cache, Workers: 3}.RunSuiteProgressive(ctx, suite3, lay3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := suiteDoc(t, again); !bytes.Equal(got, repDoc) {
			t.Error("progressive report is not deterministic across runs/worker counts")
		}
	})
}

// TestValidateProgressive rejects suites whose golden references point
// at skippable cell scenarios.
func TestValidateProgressiveRejectsCellGoldens(t *testing.T) {
	layout := &sched.Grid{
		Dims: []int{2},
		Cells: []sched.Cell{
			{Key: "a", Coord: []int{0}, Seeds: []string{"a/s1"}},
			{Key: "b", Coord: []int{1}, Seeds: []string{"b/s1"}},
		},
	}
	suite := &SuiteSpec{
		Name: "bad",
		Scenarios: []ScenarioSpec{
			{Name: "a/s1"},
			{Name: "b/s1"},
		},
		Compare: []CompareSpec{{Golden: "a/s1", Suspect: "b/s1"}},
	}
	if err := ValidateProgressive(suite, layout); err == nil {
		t.Error("a compare against a cell scenario was accepted")
	}
	layout.Extras = []string{"a/s1"}
	if err := ValidateProgressive(suite, layout); err != nil {
		t.Errorf("golden listed as an extra was rejected: %v", err)
	}
}
