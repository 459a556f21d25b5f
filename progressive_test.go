package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"offramps/internal/sched"
)

// loadSweep loads the committed multi-seed Table II sweep grid fresh
// for each use, so runs never share spec state.
func loadSweep(t *testing.T) *SuiteSpec {
	t.Helper()
	suite, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", "grid_tableii_sweep.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	return suite
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

	fullSuite := loadSweep(t)
	layout := fullSuite.layout
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
		suite := loadSweep(t)
		// A budget of the whole suite deals the grid's cells in rounds
		// but leaves nothing to skip.
		rep, st, err := Campaign{Cache: cache}.RunSuiteProgressive(ctx, suite, sched.Config{Budget: len(suite.Scenarios)})
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != 0 || st.Executed != st.Total || st.Cells != len(layout.Cells) || st.Rounds < 2 {
			t.Errorf("stats = %+v, want every scenario executed over the grid's %d cells in rounds", st.Stats, len(layout.Cells))
		}
		if got := suiteDoc(t, rep); !bytes.Equal(got, fullDoc) {
			t.Errorf("full-budget progressive report differs from RunSuite\nnaive: %d bytes\nprog:  %d bytes", len(fullDoc), len(got))
		}
	})

	t.Run("half budget covers every cell and matches executed rows", func(t *testing.T) {
		suite := loadSweep(t)
		budget := len(suite.Scenarios) / 2
		cfg := sched.Config{Budget: budget, EarlyStopK: 2}
		rep, st, err := Campaign{Cache: cache}.RunSuiteProgressive(ctx, suite, cfg)
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
			for _, c := range layout.Cells {
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
		again, _, err := Campaign{Cache: cache, Workers: 3}.RunSuiteProgressive(ctx, loadSweep(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := suiteDoc(t, again); !bytes.Equal(got, repDoc) {
			t.Error("progressive report is not deterministic across runs/worker counts")
		}
	})
}

// TestValidateProgressiveRejectsCellGoldens: validateProgressive
// rejects suites whose golden references point at skippable cell
// scenarios.
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
	if err := validateProgressive(suite, layout); err == nil {
		t.Error("a compare against a cell scenario was accepted")
	}
	layout.Extras = []string{"a/s1"}
	if err := validateProgressive(suite, layout); err != nil {
		t.Errorf("golden listed as an extra was rejected: %v", err)
	}
}

// TestGridSuiteCarriesLayout: a grid loaded through LoadSuiteOrGrid
// carries its progressive layout — for the committed sweep, 9 cells of
// 3 seeds on one axis plus the 2 extras — and expanded grids with
// several axes, filters or a seed policy carry the layouts pinned below.
func TestGridSuiteCarriesLayout(t *testing.T) {
	want := &sched.Grid{Dims: []int{9}, Extras: []string{"golden", "clean-control"}}
	for i, key := range []string{"clean", "flaw3d-1", "flaw3d-2", "flaw3d-3", "flaw3d-4", "flaw3d-5", "flaw3d-6", "flaw3d-7", "flaw3d-8"} {
		c := sched.Cell{Key: key, Coord: []int{i}}
		for _, d := range []int{100, 200, 300} {
			c.Seeds = append(c.Seeds, fmt.Sprintf("%s/d%d", key, d))
		}
		want.Cells = append(want.Cells, c)
	}
	if got := loadSweep(t).layout; !reflect.DeepEqual(got, want) {
		t.Errorf("layout = %+v\nwant     %+v", got, want)
	}

	for _, tc := range []struct{ name, grid, want string }{{
		// Three axes; the exclude filters drop one seed of the
		// flaw3d-1/T2/ramps cell and the whole flaw3d-1/clean/ramps cell
		// (flaw3d-2/clean/ramps too).
		name: "filtered",
		grid: `{"name":"f","axes":{"programs":[{"flaw3d":1},{"flaw3d":2}],"trojans":[{},{"name":"T2"}],"taps":["arduino","ramps"],"seeds":{"from":1,"to":3,"delta":true}},
			"exclude":[{"name":"flaw3d-1/T2/ramps/d2"},{"trojan":"clean","tap":"ramps"}]}`,
		want: `{"Dims":[2,2,2],"Cells":[
			{"Key":"flaw3d-1/clean/arduino","Coord":[0,0,0],"Seeds":["flaw3d-1/clean/arduino/d1","flaw3d-1/clean/arduino/d2","flaw3d-1/clean/arduino/d3"]},
			{"Key":"flaw3d-1/T2/arduino","Coord":[0,1,0],"Seeds":["flaw3d-1/T2/arduino/d1","flaw3d-1/T2/arduino/d2","flaw3d-1/T2/arduino/d3"]},
			{"Key":"flaw3d-1/T2/ramps","Coord":[0,1,1],"Seeds":["flaw3d-1/T2/ramps/d1","flaw3d-1/T2/ramps/d3"]},
			{"Key":"flaw3d-2/clean/arduino","Coord":[1,0,0],"Seeds":["flaw3d-2/clean/arduino/d1","flaw3d-2/clean/arduino/d2","flaw3d-2/clean/arduino/d3"]},
			{"Key":"flaw3d-2/T2/arduino","Coord":[1,1,0],"Seeds":["flaw3d-2/T2/arduino/d1","flaw3d-2/T2/arduino/d2","flaw3d-2/T2/arduino/d3"]},
			{"Key":"flaw3d-2/T2/ramps","Coord":[1,1,1],"Seeds":["flaw3d-2/T2/ramps/d1","flaw3d-2/T2/ramps/d2","flaw3d-2/T2/ramps/d3"]}]}`,
	}, {
		// Two axes with include filters that keep one seed of the T2
		// cells and every seed of the T3 cells; T1 has no cell.
		name: "included",
		grid: `{"name":"inc","axes":{"trojans":[{"name":"T1"},{"name":"T2"},{"name":"T3"}],"budgets":[1000,2000],"seeds":{"values":[5,6,7]}},
			"include":[{"name":"T2/*/s6"},{"trojan":"T3"}]}`,
		want: `{"Dims":[3,2],"Cells":[
			{"Key":"T2/budget1µs","Coord":[1,0],"Seeds":["T2/budget1µs/s6"]},
			{"Key":"T2/budget2µs","Coord":[1,1],"Seeds":["T2/budget2µs/s6"]},
			{"Key":"T3/budget1µs","Coord":[2,0],"Seeds":["T3/budget1µs/s5","T3/budget1µs/s6","T3/budget1µs/s7"]},
			{"Key":"T3/budget2µs","Coord":[2,1],"Seeds":["T3/budget2µs/s5","T3/budget2µs/s6","T3/budget2µs/s7"]}]}`,
	}, {
		// A seed policy and no seed axis: one scenario per cell.
		name: "seedPolicy",
		grid: `{"name":"pol","axes":{"trojans":[{"name":"T1"},{"name":"T2"}],"taps":["arduino","ramps"]},"seedPolicy":{"deltaStart":10}}`,
		want: `{"Dims":[2,2],"Cells":[
			{"Key":"T1/arduino","Coord":[0,0],"Seeds":["T1/arduino"]},
			{"Key":"T1/ramps","Coord":[0,1],"Seeds":["T1/ramps"]},
			{"Key":"T2/arduino","Coord":[1,0],"Seeds":["T2/arduino"]},
			{"Key":"T2/ramps","Coord":[1,1],"Seeds":["T2/ramps"]}]}`,
	}, {
		// Only a seed axis: one cell with no coordinate.
		name: "seedsOnly",
		grid: `{"name":"s","axes":{"seeds":{"values":[1,2]}}}`,
		want: `{"Cells":[{"Key":"cell","Seeds":["s1","s2"]}]}`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := ParseGridSpec([]byte(tc.grid), "")
			if err != nil {
				t.Fatal(err)
			}
			suite, err := g.Expand()
			if err != nil {
				t.Fatal(err)
			}
			var want sched.Grid
			if err := json.Unmarshal([]byte(tc.want), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(suite.layout, &want) {
				t.Errorf("layout = %+v\nwant     %+v", suite.layout, &want)
			}
		})
	}
}

// TestZeroConfigSchedulesPlain: under the zero Config a grid suite runs
// as a plain one — one round of every scenario in suite order, no cells
// and nothing skipped — while any budget deals the grid's cells.
func TestZeroConfigSchedulesPlain(t *testing.T) {
	suite := loadSweep(t)
	s, err := suite.Scheduler(sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	round, err := s.NextRound()
	if err != nil {
		t.Fatal(err)
	}
	if names := suite.ScenarioNames(); !reflect.DeepEqual(round, names) {
		t.Fatalf("round 1 = %v, want the whole suite %v", round, names)
	}
	for _, name := range round {
		if err := s.Observe(name, sched.Trojan); err != nil {
			t.Fatal(err)
		}
	}
	if next, err := s.NextRound(); err != nil || len(next) != 0 {
		t.Fatalf("round 2 = %v, %v; want empty", next, err)
	}
	want := sched.Stats{Executed: len(round), Total: len(round), Rounds: 1}
	if st := s.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	budgeted, err := suite.Scheduler(sched.Config{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := budgeted.Stats(); st.Cells != len(suite.layout.Cells) {
		t.Errorf("a budgeted scheduler sees %d cells, want the grid's %d", st.Cells, len(suite.layout.Cells))
	}
}
