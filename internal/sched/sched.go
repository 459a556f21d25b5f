package sched

import (
	"fmt"
	"math"
	"math/bits"
)

// Verdict is the detection outcome the scheduler steers by. Only Clean
// and Trojan are *known* verdicts: they feed boundary scoring and
// early-stop unanimity. Unknown (no detector looked) and Errored (the
// run failed) carry no boundary signal and break unanimity, so a cell
// with errors or no signal is never retired early — it just runs in
// diverse order until the budget says otherwise.
type Verdict uint8

const (
	Unknown Verdict = iota
	Clean
	Trojan
	Errored
)

// String renders the verdict for logs and tests.
func (v Verdict) String() string {
	switch v {
	case Clean:
		return "clean"
	case Trojan:
		return "trojan"
	case Errored:
		return "errored"
	default:
		return "unknown"
	}
}

// known reports whether the verdict carries a detection signal.
func (v Verdict) known() bool { return v == Clean || v == Trojan }

// Cell is one grid cell: a point on the swept non-seed axes and the
// scenario names that sample it, in seed order. Seeds[0] is the cell's
// coverage representative — the seed phase 1 runs and the seed whose
// verdict stands for the cell in boundary scoring.
type Cell struct {
	// Key labels the cell in skips and stats (typically the cell's name
	// prefix without the seed label).
	Key string
	// Coord addresses the cell on the grid's swept axes; len(Coord) ==
	// len(Grid.Dims) and 0 ≤ Coord[i] < Grid.Dims[i]. Two cells are
	// neighbours when their coordinates differ by exactly 1 on exactly
	// one axis.
	Coord []int
	// Seeds are the cell's scenario names in seed order.
	Seeds []string
}

// Grid is the scheduler's view of an expanded sweep: the swept axis
// sizes, the cells in expansion order, and the extra scenarios
// (goldens, controls) that run unconditionally in round 1. A grid with
// no cells and only extras is a plain suite: round 1 runs every
// scenario in extras order and nothing is ever skipped.
type Grid struct {
	// Dims are the cardinalities of the swept non-seed axes, in axis
	// order. Empty when the sweep has no non-seed axis (a pure seed
	// sweep): then no cell has neighbours and boundary scoring is moot.
	Dims []int
	// Cells are the grid cells in deterministic expansion order.
	Cells []Cell
	// Extras are the scenario names outside the grid proper.
	Extras []string
}

// Config tunes one progressive sweep.
type Config struct {
	// Budget is the target number of executed scenarios, extras and
	// coverage included (≤ 0 = unlimited). Coverage — the extras plus one
	// seed per cell — is mandatory and is dealt even past the budget;
	// the budget bounds refinement beyond it.
	Budget int
	// EarlyStopK retires a cell once its first K executed seeds agree on
	// a known verdict (≤ 0 = never early-stop).
	EarlyStopK int
}

// Skip is one scenario the sweep decided not to run. Reason is the bare
// decision ("early-stop, 2/2 unanimous", "scenario budget exhausted");
// callers wrap it into the synthesized row's error text.
type Skip struct {
	Name   string
	Cell   string
	Reason string
}

// Stats summarizes a sweep for the progress sink.
type Stats struct {
	// Cells and Covered count grid cells and cells with ≥ 1 executed
	// seed; Boundary counts cells currently scored as detection
	// boundaries.
	Cells, Covered, Boundary int
	// Executed, Skipped, and Total count scenarios (extras included in
	// Executed and Total; Total = Executed + Skipped once the sweep is
	// done).
	Executed, Skipped, Total int
	// Rounds is the number of non-empty rounds dealt so far.
	Rounds int
}

// where locates an emitted scenario for Observe.
type where struct {
	cell int // -1 for extras
	seed int
}

// Scheduler runs one progressive sweep. It is synchronous and
// single-goroutine by design: call NextRound, execute the returned
// scenarios however you like (worker pool, lease queue), Observe every
// one of them, and repeat until NextRound returns an empty round. The
// round sequence depends only on (grid, config, verdicts), never on the
// order Observe calls arrive within a round.
type Scheduler struct {
	grid *Grid
	cfg  Config

	order       []int       // cell indices in bit-reversed (cell-diverse) order
	neighbours  [][]int     // per cell: adjacent cell indices
	next        []int       // per cell: next seed index to deal
	verdicts    [][]Verdict // per cell: observed verdicts in seed order
	rep         []Verdict   // per cell: first executed seed's verdict
	retired     []string    // per cell: retirement reason ("" = live)
	outstanding map[string]where
	index       map[string]where
	skips       []Skip // all retirements, in decision order
	fresh       []Skip // retirements not yet drained by TakeRetired
	budget      int    // effective budget (0 = unlimited)
	emitted     int    // scenarios dealt so far
	started     bool
	rounds      int
	total       int
}

// New validates the grid and builds a scheduler over it.
func New(g *Grid, cfg Config) (*Scheduler, error) {
	if g == nil || len(g.Cells)+len(g.Extras) == 0 {
		return nil, fmt.Errorf("sched: grid has no cells and no extras")
	}
	// A cell's index is its coordinate read as a mixed-radix number over
	// Dims, so a neighbour is one stride away.
	stride := make([]int, len(g.Dims))
	size := 1
	for ax := len(g.Dims) - 1; ax >= 0; ax-- {
		d := g.Dims[ax]
		if d <= 0 || size > math.MaxInt/d {
			return nil, fmt.Errorf("sched: grid dimensions %v are not positive or overflow", g.Dims)
		}
		stride[ax] = size
		size *= d
	}
	seen := make(map[string]bool, len(g.Extras)+2*len(g.Cells))
	byCoord := make(map[int]int, len(g.Cells))
	keys := make([]int, len(g.Cells))
	total := len(g.Extras)
	for _, name := range g.Extras {
		if name == "" || seen[name] {
			return nil, fmt.Errorf("sched: empty or duplicate extra %q", name)
		}
		seen[name] = true
	}
	for i, c := range g.Cells {
		if len(c.Seeds) == 0 {
			return nil, fmt.Errorf("sched: cell %q has no seeds", c.Key)
		}
		if len(c.Coord) != len(g.Dims) {
			return nil, fmt.Errorf("sched: cell %q has %d coordinates, grid has %d axes", c.Key, len(c.Coord), len(g.Dims))
		}
		for _, name := range c.Seeds {
			if name == "" || seen[name] {
				return nil, fmt.Errorf("sched: empty or duplicate scenario %q in cell %q", name, c.Key)
			}
			seen[name] = true
		}
		k := 0
		for ax, x := range c.Coord {
			if x < 0 || x >= g.Dims[ax] {
				return nil, fmt.Errorf("sched: cell %q coordinate %v is outside the grid's dimensions %v", c.Key, c.Coord, g.Dims)
			}
			k += x * stride[ax]
		}
		if _, dup := byCoord[k]; dup {
			return nil, fmt.Errorf("sched: two cells at coordinate %v", c.Coord)
		}
		byCoord[k] = i
		keys[i] = k
		total += len(c.Seeds)
	}

	s := &Scheduler{
		grid:        g,
		cfg:         cfg,
		order:       diverseOrder(len(g.Cells)),
		neighbours:  make([][]int, len(g.Cells)),
		next:        make([]int, len(g.Cells)),
		verdicts:    make([][]Verdict, len(g.Cells)),
		rep:         make([]Verdict, len(g.Cells)),
		retired:     make([]string, len(g.Cells)),
		outstanding: make(map[string]where),
		index:       make(map[string]where),
		total:       total,
	}
	// Mandatory coverage overrides the budget: a budget below
	// extras + one-seed-per-cell still covers every cell.
	mandatory := len(g.Extras) + len(g.Cells)
	if cfg.Budget > 0 {
		s.budget = cfg.Budget
		if s.budget < mandatory {
			s.budget = mandatory
		}
	}
	// Axis neighbourhood: coordinates differing by exactly 1 on exactly
	// one axis. Filtered-out cells simply do not exist — a survivor next
	// to a hole has fewer neighbours, not phantom ones.
	adj := make([]int, 0, 2*len(g.Dims)*len(g.Cells))
	for i, c := range g.Cells {
		start := len(adj)
		for ax, x := range c.Coord {
			for _, d := range [2]int{-1, 1} {
				if x+d < 0 || x+d >= g.Dims[ax] {
					continue
				}
				if j, ok := byCoord[keys[i]+d*stride[ax]]; ok {
					adj = append(adj, j)
				}
			}
		}
		s.neighbours[i] = adj[start:len(adj):len(adj)]
	}
	return s, nil
}

// diverseOrder returns cell indices sorted by the bit-reversal (van der
// Corput) rank of their index within the next power of two — a
// deterministic low-discrepancy permutation that visits the grid's
// expansion order by repeated halving (0, n/2, n/4, 3n/4, ...), so the
// first few cells of every round sample far-apart regions. Bit reversal
// is a bijection on the ranks, so walking the ranks in order and
// keeping the indices below n is that sort.
func diverseOrder(n int) []int {
	if n == 0 {
		return nil
	}
	width := bits.Len(uint(n - 1))
	out := make([]int, 0, n)
	for r := range uint(1) << width {
		if i := int(bits.Reverse(r) >> (bits.UintSize - width)); i < n {
			out = append(out, i)
		}
	}
	return out
}

// NextRound deals the next round of scenario names, in priority order.
// An empty round means the sweep is decided: everything is executed,
// observed, or retired (collect the retirements via Skips/TakeRetired).
// Calling it while a previous round's scenarios are unobserved is a
// caller bug and errors.
func (s *Scheduler) NextRound() ([]string, error) {
	if len(s.outstanding) > 0 {
		return nil, fmt.Errorf("sched: %d scenarios of the previous round are unobserved", len(s.outstanding))
	}
	if !s.started {
		s.started = true
		round := make([]string, 0, len(s.grid.Extras)+len(s.grid.Cells))
		for _, name := range s.grid.Extras {
			round = append(round, name)
			s.deal(name, where{cell: -1})
		}
		for _, ci := range s.order {
			name := s.grid.Cells[ci].Seeds[0]
			round = append(round, name)
			s.deal(name, where{cell: ci, seed: 0})
			s.next[ci] = 1
		}
		s.rounds++
		return round, nil
	}

	s.earlyStop()

	// Boundary cells first, then the rest — both in diverse order.
	var candidates []int
	for pass := 0; pass < 2; pass++ {
		for _, ci := range s.order {
			if s.retired[ci] != "" || s.next[ci] >= len(s.grid.Cells[ci].Seeds) {
				continue
			}
			if (pass == 0) == s.boundary(ci) {
				candidates = append(candidates, ci)
			}
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	slots := len(candidates)
	if s.budget > 0 {
		if slots = s.budget - s.emitted; slots < 0 {
			slots = 0
		}
	}
	var round []string
	for _, ci := range candidates {
		if len(round) >= slots {
			break
		}
		cell := &s.grid.Cells[ci]
		name := cell.Seeds[s.next[ci]]
		round = append(round, name)
		s.deal(name, where{cell: ci, seed: s.next[ci]})
		s.next[ci]++
	}
	if s.budget > 0 && s.emitted >= s.budget {
		// The budget is spent; nothing beyond this round will ever be
		// dealt, so retire every remaining seed now and let the caller
		// synthesize the skips while the last round executes.
		for _, ci := range s.order {
			s.retire(ci, "scenario budget exhausted")
		}
	}
	if len(round) > 0 {
		s.rounds++
	}
	return round, nil
}

// deal registers one emitted scenario.
func (s *Scheduler) deal(name string, w where) {
	s.outstanding[name] = w
	s.index[name] = w
	s.emitted++
}

// earlyStop retires cells whose first EarlyStopK executed seeds agree on
// a known verdict. A cell that was not unanimous at K can never become
// unanimous later, so checking ≥ K is exact.
func (s *Scheduler) earlyStop() {
	k := s.cfg.EarlyStopK
	if k <= 0 {
		return
	}
	for ci := range s.grid.Cells {
		if s.retired[ci] != "" || s.next[ci] >= len(s.grid.Cells[ci].Seeds) {
			continue
		}
		vs := s.verdicts[ci]
		if len(vs) < k {
			continue
		}
		unanimous := vs[0].known()
		for _, v := range vs[1:] {
			if v != vs[0] {
				unanimous = false
				break
			}
		}
		if unanimous {
			s.retire(ci, fmt.Sprintf("early-stop, %d/%d unanimous", k, k))
		}
	}
}

// retire marks a cell's remaining seeds skipped. Already-retired and
// fully-dealt cells are no-ops.
func (s *Scheduler) retire(ci int, reason string) {
	if s.retired[ci] != "" {
		return
	}
	cell := &s.grid.Cells[ci]
	if s.next[ci] >= len(cell.Seeds) {
		return
	}
	s.retired[ci] = reason
	for _, name := range cell.Seeds[s.next[ci]:] {
		sk := Skip{Name: name, Cell: cell.Key, Reason: reason}
		s.skips = append(s.skips, sk)
		s.fresh = append(s.fresh, sk)
	}
	s.next[ci] = len(cell.Seeds)
}

// boundary reports whether the cell's representative verdict is known
// and differs from any neighbour's known representative verdict.
func (s *Scheduler) boundary(ci int) bool {
	if !s.rep[ci].known() {
		return false
	}
	for _, nj := range s.neighbours[ci] {
		if s.rep[nj].known() && s.rep[nj] != s.rep[ci] {
			return true
		}
	}
	return false
}

// Observe feeds back one executed scenario's verdict. Every scenario of
// a round must be observed (in any order) before the next round.
func (s *Scheduler) Observe(name string, v Verdict) error {
	w, ok := s.outstanding[name]
	if !ok {
		return fmt.Errorf("sched: %q is not outstanding", name)
	}
	delete(s.outstanding, name)
	if w.cell >= 0 {
		s.verdicts[w.cell] = append(s.verdicts[w.cell], v)
		if w.seed == 0 {
			s.rep[w.cell] = v
		}
	}
	return nil
}

// Done reports whether the sweep is decided: started, nothing
// outstanding, and no live cell holds an undealt seed.
func (s *Scheduler) Done() bool {
	if !s.started || len(s.outstanding) > 0 {
		return false
	}
	for ci, cell := range s.grid.Cells {
		if s.retired[ci] == "" && s.next[ci] < len(cell.Seeds) {
			return false
		}
	}
	return true
}

// Skips returns every retirement decided so far, in decision order.
func (s *Scheduler) Skips() []Skip {
	return append([]Skip(nil), s.skips...)
}

// TakeRetired drains the retirements decided since the last call — the
// farm coordinator's hook for journaling skip rows as they are decided
// instead of at the end.
func (s *Scheduler) TakeRetired() []Skip {
	out := s.fresh
	s.fresh = nil
	return out
}

// Stats snapshots the sweep.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Cells:    len(s.grid.Cells),
		Executed: s.emitted - len(s.outstanding),
		Skipped:  len(s.skips),
		Total:    s.total,
		Rounds:   s.rounds,
	}
	for ci := range s.grid.Cells {
		if len(s.verdicts[ci]) > 0 {
			st.Covered++
		}
		if s.boundary(ci) {
			st.Boundary++
		}
	}
	return st
}
