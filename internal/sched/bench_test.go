package sched

import (
	"fmt"
	"testing"
)

// benchGrid is a 100×1000 grid (10⁵ cells, two seeds each).
func benchGrid() *Grid {
	const rows, cols = 100, 1000
	g := &Grid{Dims: []int{rows, cols}}
	for r := range rows {
		for c := range cols {
			key := fmt.Sprintf("r%d/c%d", r, c)
			g.Cells = append(g.Cells, Cell{Key: key, Coord: []int{r, c}, Seeds: []string{key + "/s0", key + "/s1"}})
		}
	}
	return g
}

// BenchmarkNew measures building the scheduler over the 10⁵-cell grid:
// validation, the neighbour table and the diverse order.
func BenchmarkNew(b *testing.B) {
	g := benchGrid()
	b.ReportAllocs()
	for range b.N {
		if _, err := New(g, Config{Budget: len(g.Cells) + 1000, EarlyStopK: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextRound measures the two rounds of a progressive sweep
// over the 10⁵-cell grid: round 1 deals every cell's coverage seed in
// diverse order, and round 2 early-stops and scores every cell's
// boundary after a verdict line splits the grid. Building the scheduler
// (BenchmarkNew) and observing the verdicts are not timed.
func BenchmarkNextRound(b *testing.B) {
	g := benchGrid()
	cols := g.Dims[1]
	verdict := make(map[string]Verdict, len(g.Cells))
	for _, c := range g.Cells {
		verdict[c.Seeds[0]] = Clean
		if c.Coord[1] >= cols/2 {
			verdict[c.Seeds[0]] = Trojan
		}
	}
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		s, err := New(g, Config{Budget: len(g.Cells) + 1000, EarlyStopK: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		round, err := s.NextRound()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, name := range round {
			if err := s.Observe(name, verdict[name]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := s.NextRound(); err != nil {
			b.Fatal(err)
		}
	}
}
