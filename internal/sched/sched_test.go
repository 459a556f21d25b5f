package sched

import (
	"fmt"
	"reflect"
	"testing"
)

// lineGrid builds a 1-D grid of n cells with seedsPer seeds each and the
// given extras.
func lineGrid(n, seedsPer int, extras ...string) *Grid {
	g := &Grid{Dims: []int{n}, Extras: extras}
	for i := 0; i < n; i++ {
		c := Cell{Key: fmt.Sprintf("cell%d", i), Coord: []int{i}}
		for s := 0; s < seedsPer; s++ {
			c.Seeds = append(c.Seeds, fmt.Sprintf("cell%d/s%d", i, s))
		}
		g.Cells = append(g.Cells, c)
	}
	return g
}

func mustRound(t *testing.T, s *Scheduler) []string {
	t.Helper()
	round, err := s.NextRound()
	if err != nil {
		t.Fatalf("NextRound: %v", err)
	}
	return round
}

func observeAll(t *testing.T, s *Scheduler, round []string, v func(name string) Verdict) {
	t.Helper()
	for _, name := range round {
		if err := s.Observe(name, v(name)); err != nil {
			t.Fatalf("Observe(%q): %v", name, err)
		}
	}
}

func TestDiverseOrder(t *testing.T) {
	got := diverseOrder(8)
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diverseOrder(8) = %v, want %v", got, want)
	}
	// Non-power-of-two: same bit-reversed ranking over width 3, holes
	// (5, 6, 7 beyond n) removed.
	got = diverseOrder(5)
	want = []int{0, 4, 2, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diverseOrder(5) = %v, want %v", got, want)
	}
	if got := diverseOrder(1); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("diverseOrder(1) = %v", got)
	}
}

func TestRoundOneCoversEveryCellAndExtras(t *testing.T) {
	g := lineGrid(5, 3, "golden", "control")
	s, err := New(g, Config{Budget: 3}) // far below mandatory coverage
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	want := []string{"golden", "control", "cell0/s0", "cell4/s0", "cell2/s0", "cell1/s0", "cell3/s0"}
	if !reflect.DeepEqual(round, want) {
		t.Fatalf("round 1 = %v, want %v", round, want)
	}
	observeAll(t, s, round, func(string) Verdict { return Clean })
	st := s.Stats()
	if st.Covered != 5 {
		t.Fatalf("covered = %d, want 5", st.Covered)
	}
	// Budget (clamped to mandatory 7) is exhausted: next round empty,
	// remaining 10 seeds skipped.
	if round := mustRound(t, s); len(round) != 0 {
		t.Fatalf("expected empty round, got %v", round)
	}
	if got := len(s.Skips()); got != 10 {
		t.Fatalf("skips = %d, want 10", got)
	}
	for _, sk := range s.Skips() {
		if sk.Reason != "scenario budget exhausted" {
			t.Fatalf("skip reason = %q", sk.Reason)
		}
	}
	if !s.Done() {
		t.Fatal("scheduler should be done")
	}
}

func TestBoundaryCellsDealtFirst(t *testing.T) {
	// Verdict flips between cell1 (clean) and cell2 (trojan): cells 1
	// and 2 are boundary, the rest are not.
	g := lineGrid(4, 2)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	observeAll(t, s, round, func(name string) Verdict {
		if name == "cell2/s0" || name == "cell3/s0" {
			return Trojan
		}
		return Clean
	})
	round = mustRound(t, s)
	// Boundary cells {1, 2} first in diverse order (2 before 1), then
	// the rest {0, 3} in diverse order.
	want := []string{"cell2/s1", "cell1/s1", "cell0/s1", "cell3/s1"}
	if !reflect.DeepEqual(round, want) {
		t.Fatalf("round 2 = %v, want %v", round, want)
	}
}

func TestUnknownAndErroredCarryNoBoundarySignal(t *testing.T) {
	g := lineGrid(3, 2)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	observeAll(t, s, round, func(name string) Verdict {
		switch name {
		case "cell0/s0":
			return Clean
		case "cell1/s0":
			return Errored
		default:
			return Unknown
		}
	})
	if st := s.Stats(); st.Boundary != 0 {
		t.Fatalf("boundary = %d, want 0", st.Boundary)
	}
	round = mustRound(t, s)
	// No boundary cells: plain diverse order.
	want := []string{"cell0/s1", "cell2/s1", "cell1/s1"}
	if !reflect.DeepEqual(round, want) {
		t.Fatalf("round 2 = %v, want %v", round, want)
	}
}

func TestEarlyStopRetiresUnanimousCells(t *testing.T) {
	g := lineGrid(2, 4)
	s, err := New(g, Config{EarlyStopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	observeAll(t, s, round, func(name string) Verdict {
		if name == "cell1/s0" {
			return Trojan
		}
		return Clean
	})
	round = mustRound(t, s)
	observeAll(t, s, round, func(name string) Verdict {
		if name == "cell1/s1" {
			return Clean // disagrees with seed 0: cell1 never unanimous
		}
		return Clean
	})
	round = mustRound(t, s)
	// cell0 unanimous clean at K=2 → retired; only cell1 deals.
	if !reflect.DeepEqual(round, []string{"cell1/s2"}) {
		t.Fatalf("round 3 = %v", round)
	}
	skips := s.TakeRetired()
	if len(skips) != 2 {
		t.Fatalf("retired = %v", skips)
	}
	for _, sk := range skips {
		if sk.Cell != "cell0" || sk.Reason != "early-stop, 2/2 unanimous" {
			t.Fatalf("skip = %+v", sk)
		}
	}
	if got := s.TakeRetired(); len(got) != 0 {
		t.Fatalf("TakeRetired should drain: %v", got)
	}
	// cell1 (mixed verdicts) runs to the end.
	observeAll(t, s, round, func(string) Verdict { return Trojan })
	round = mustRound(t, s)
	if !reflect.DeepEqual(round, []string{"cell1/s3"}) {
		t.Fatalf("round 4 = %v", round)
	}
	observeAll(t, s, round, func(string) Verdict { return Trojan })
	if round := mustRound(t, s); len(round) != 0 {
		t.Fatalf("expected empty round, got %v", round)
	}
	if !s.Done() {
		t.Fatal("should be done")
	}
}

func TestEarlyStopNeedsKnownVerdicts(t *testing.T) {
	g := lineGrid(1, 3)
	s, err := New(g, Config{EarlyStopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for seeds := 0; seeds < 3; seeds++ {
		round := mustRound(t, s)
		if len(round) != 1 {
			t.Fatalf("round %d = %v", seeds+1, round)
		}
		observeAll(t, s, round, func(string) Verdict { return Unknown })
	}
	// Unanimous Unknown never early-stops: all 3 seeds executed.
	if round := mustRound(t, s); len(round) != 0 {
		t.Fatalf("expected empty round, got %v", round)
	}
	if got := len(s.Skips()); got != 0 {
		t.Fatalf("skips = %d, want 0", got)
	}
}

func TestBudgetBoundsRefinement(t *testing.T) {
	g := lineGrid(3, 3, "golden")
	// mandatory = 1 extra + 3 cells = 4; budget 5 leaves one refinement
	// slot.
	s, err := New(g, Config{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	if len(round) != 4 {
		t.Fatalf("round 1 = %v", round)
	}
	observeAll(t, s, round, func(string) Verdict { return Clean })
	round = mustRound(t, s)
	if !reflect.DeepEqual(round, []string{"cell0/s1"}) {
		t.Fatalf("round 2 = %v", round)
	}
	// Budget now exhausted: everything else retired while round 2 runs.
	if got := len(s.Skips()); got != 5 {
		t.Fatalf("skips = %d, want 5", got)
	}
	observeAll(t, s, round, func(string) Verdict { return Clean })
	if round := mustRound(t, s); len(round) != 0 {
		t.Fatalf("expected empty round, got %v", round)
	}
	st := s.Stats()
	if st.Executed != 5 || st.Skipped != 5 || st.Total != 10 || st.Covered != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestObserveOrderWithinRoundIsIrrelevant(t *testing.T) {
	verdict := func(name string) Verdict {
		if name < "cell2" {
			return Clean
		}
		return Trojan
	}
	run := func(reverse bool) [][]string {
		g := lineGrid(4, 3)
		s, err := New(g, Config{Budget: 9, EarlyStopK: 2})
		if err != nil {
			t.Fatal(err)
		}
		var rounds [][]string
		for {
			round := mustRound(t, s)
			if len(round) == 0 {
				break
			}
			rounds = append(rounds, round)
			ordered := append([]string(nil), round...)
			if reverse {
				for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
					ordered[i], ordered[j] = ordered[j], ordered[i]
				}
			}
			observeAll(t, s, ordered, verdict)
		}
		return rounds
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round sequence depends on observe order:\n%v\nvs\n%v", a, b)
	}
}

func TestMisuseErrors(t *testing.T) {
	if _, err := New(&Grid{}, Config{}); err == nil {
		t.Fatal("empty grid should error")
	}
	if _, err := New(&Grid{Cells: []Cell{{Key: "a", Seeds: []string{"x"}}, {Key: "b", Seeds: []string{"x"}}}}, Config{}); err == nil {
		t.Fatal("duplicate scenario name should error")
	}
	if _, err := New(&Grid{Dims: []int{2}, Cells: []Cell{{Key: "a", Seeds: []string{"x"}}}}, Config{}); err == nil {
		t.Fatal("coordinate arity mismatch should error")
	}
	if _, err := New(&Grid{Dims: []int{2}, Cells: []Cell{
		{Key: "a", Coord: []int{0}, Seeds: []string{"x"}},
		{Key: "b", Coord: []int{0}, Seeds: []string{"y"}},
	}}, Config{}); err == nil {
		t.Fatal("duplicate coordinate should error")
	}
	for _, coord := range []int{-1, 2} {
		if _, err := New(&Grid{Dims: []int{2}, Cells: []Cell{{Key: "a", Coord: []int{coord}, Seeds: []string{"x"}}}}, Config{}); err == nil {
			t.Fatalf("coordinate %d outside Dims [2] should error", coord)
		}
	}

	g := lineGrid(2, 2)
	s, err := New(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe("cell0/s0", Clean); err == nil {
		t.Fatal("observing before dealing should error")
	}
	round := mustRound(t, s)
	if _, err := s.NextRound(); err == nil {
		t.Fatal("NextRound with outstanding scenarios should error")
	}
	observeAll(t, s, round, func(string) Verdict { return Clean })
	if err := s.Observe(round[0], Clean); err == nil {
		t.Fatal("double observe should error")
	}
}

// TestExtrasOnlyGrid: a grid with no cells is a plain suite. Round 1
// deals every extra in the given order, no budget or early stop can
// skip one, and the sweep is decided after that round.
func TestExtrasOnlyGrid(t *testing.T) {
	names := []string{"golden", "b", "a", "c"}
	s, err := New(&Grid{Extras: names}, Config{Budget: 1, EarlyStopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	round := mustRound(t, s)
	if !reflect.DeepEqual(round, names) {
		t.Fatalf("round 1 = %v, want the extras in order %v", round, names)
	}
	observeAll(t, s, round, func(string) Verdict { return Trojan })
	if next := mustRound(t, s); len(next) != 0 {
		t.Fatalf("round 2 = %v, want empty", next)
	}
	if !s.Done() {
		t.Fatal("an extras-only sweep should be done after round 1")
	}
	want := Stats{Executed: len(names), Total: len(names), Rounds: 1}
	if st := s.Stats(); st != want || len(s.Skips()) != 0 {
		t.Fatalf("stats = %+v, skips = %v; want %+v and no skips", st, s.Skips(), want)
	}
}
