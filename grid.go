package offramps

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"offramps/internal/sched"
	"offramps/internal/sim"
)

// This file is the suite *generator*: a GridSpec is a compact sweep
// description — lists of programs, trojans, detectors, tap placements,
// budgets, and a seed range — that expands into the cross-product of
// ScenarioSpecs, minus include/exclude filters. Expansion is
// deterministic and ordered: the same grid file always produces the same
// suite, scenario for scenario, byte for byte. That determinism is what
// makes the second half of this file sound: every expanded scenario has
// a stable shard key (an FNV-1a hash of its name), so `suite -shard i/N`
// runs a reproducible slice of the sweep and the merged shard streams
// are byte-identical to the unsharded run.

// ProgramAxis is one value of the programs axis: a ProgramSpec plus an
// optional display label overriding the derived one.
type ProgramAxis struct {
	ProgramSpec
	Label string `json:"label,omitempty"`
}

// TrojanAxis is one value of the trojans axis. An entry with no name
// means "no trojan" (the clean arm of the sweep); give it a label when
// the derived "clean" is not wanted.
type TrojanAxis struct {
	TrojanSpec
	Label string `json:"label,omitempty"`
}

// DetectorAxis is one value of the detectors axis. An entry with no name
// means "no detector".
type DetectorAxis struct {
	DetectorSpec
	Label string `json:"label,omitempty"`
}

// SeedAxis sweeps the seed dimension: either an explicit value list or
// an inclusive [From, To] range with Step (default 1). When Delta is set
// the values are offsets from the suite's base seed (ScenarioSpec
// SeedDelta); otherwise they pin absolute seeds.
type SeedAxis struct {
	Values []uint64 `json:"values,omitempty"`
	From   uint64   `json:"from,omitempty"`
	To     uint64   `json:"to,omitempty"`
	Step   uint64   `json:"step,omitempty"`
	Delta  bool     `json:"delta,omitempty"`
}

// expand materializes the axis values.
func (a *SeedAxis) expand() ([]uint64, error) {
	if len(a.Values) > 0 {
		if a.From != 0 || a.To != 0 || a.Step != 0 {
			return nil, fmt.Errorf("seed axis sets both values and a range")
		}
		return a.Values, nil
	}
	step := a.Step
	if step == 0 {
		step = 1
	}
	if a.To < a.From {
		return nil, fmt.Errorf("seed axis range [%d, %d] is empty", a.From, a.To)
	}
	var out []uint64
	for v := a.From; v <= a.To; v += step {
		out = append(out, v)
		if v > v+step { // overflow guard
			break
		}
	}
	return out, nil
}

// GridAxes are the sweep dimensions. An absent axis contributes no
// label and leaves the template's value in place; a present axis
// overrides it for every cell.
type GridAxes struct {
	Programs  []ProgramAxis  `json:"programs,omitempty"`
	Trojans   []TrojanAxis   `json:"trojans,omitempty"`
	Detectors []DetectorAxis `json:"detectors,omitempty"`
	// Taps are tap placements: "arduino", "ramps", or "dual".
	Taps []string `json:"taps,omitempty"`
	// Budgets are per-scenario simulated-time limits.
	Budgets []sim.Time `json:"budgets,omitempty"`
	Seeds   *SeedAxis  `json:"seeds,omitempty"`
}

// GridSeedPolicy assigns each expanded cell an increasing SeedDelta
// (DeltaStart + index·DeltaStep, in full-product order, before filters
// apply — so excluding a cell never shifts its neighbours' seeds). It
// models the experiment suites' "physically separate runs of the same
// job" pairing without a seed axis.
type GridSeedPolicy struct {
	DeltaStart uint64 `json:"deltaStart"`
	DeltaStep  uint64 `json:"deltaStep,omitempty"`
}

// GridFilter selects cells by their axis labels (exact match; empty
// fields are wildcards) or by a path.Match glob over the full cell name.
// A cell is kept when it matches at least one include filter (or the
// include list is empty) and no exclude filter.
type GridFilter struct {
	Name     string `json:"name,omitempty"`
	Program  string `json:"program,omitempty"`
	Trojan   string `json:"trojan,omitempty"`
	Detector string `json:"detector,omitempty"`
	Tap      string `json:"tap,omitempty"`
}

// matches reports whether the filter selects a cell with the given name
// and labels. An all-empty filter matches nothing (it is rejected by
// Validate anyway).
func (f GridFilter) matches(name string, labels map[string]string) (bool, error) {
	if f.isEmpty() {
		return false, nil
	}
	if f.Name != "" {
		ok, err := path.Match(f.Name, name)
		if err != nil {
			return false, fmt.Errorf("bad name glob %q: %w", f.Name, err)
		}
		if !ok {
			return false, nil
		}
	}
	for axis, want := range map[string]string{
		"program": f.Program, "trojan": f.Trojan, "detector": f.Detector, "tap": f.Tap,
	} {
		if want != "" && labels[axis] != want {
			return false, nil
		}
	}
	return true, nil
}

func (f GridFilter) isEmpty() bool {
	return f == GridFilter{}
}

// GridSpec is a compact sweep description that expands into a SuiteSpec:
// the cross-product of the axes, each cell a ScenarioSpec derived from
// the template, plus verbatim extra scenarios (golden references,
// controls) and comparison entries.
type GridSpec struct {
	Name     string `json:"name"`
	BaseSeed uint64 `json:"baseSeed,omitempty"`
	// Budget/Workers pass through to the expanded suite.
	Budget  sim.Time `json:"budget,omitempty"`
	Workers int      `json:"workers,omitempty"`
	// Template seeds every cell; axis values override its fields, and its
	// Name (when set) prefixes every cell name. Setting a template field
	// that an axis also sweeps is an error.
	Template ScenarioSpec `json:"template,omitempty"`
	Axes     GridAxes     `json:"axes"`
	// SeedPolicy assigns per-cell seed deltas by expansion index;
	// mutually exclusive with a seeds axis.
	SeedPolicy *GridSeedPolicy `json:"seedPolicy,omitempty"`
	Include    []GridFilter    `json:"include,omitempty"`
	Exclude    []GridFilter    `json:"exclude,omitempty"`
	// Extra scenarios are prepended verbatim, before the expanded cells —
	// typically the golden print and clean controls.
	Extra []ScenarioSpec `json:"extra,omitempty"`
	// CompareWith names a scenario (usually from Extra) to golden-compare
	// every expanded cell against, in expansion order.
	CompareWith string `json:"compareWith,omitempty"`
	// Compare entries are appended verbatim after the generated ones.
	Compare []CompareSpec `json:"compare,omitempty"`

	// dir anchors relative program file references (set by ParseGridSpec).
	dir string
}

// ParseGridSpec decodes a grid spec from JSON, strictly — unknown fields
// and trailing content are errors, mirroring ParseSuiteSpec. dir anchors
// relative file references in the expanded suite.
func ParseGridSpec(data []byte, dir string) (*GridSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g GridSpec
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("offramps: parsing grid spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("offramps: parsing grid spec: trailing content after the grid object")
	}
	g.dir = dir
	return &g, nil
}

// maxGridScenarios is the most scenarios a grid may expand to.
const maxGridScenarios = 1 << 20

// gridProduct is an upper bound on the scenarios g expands to — the
// axes' cross-product before filters, plus the extras — computed from
// the axis sizes without materializing anything. It saturates at
// math.MaxUint64.
func gridProduct(g *GridSpec) uint64 {
	a := g.Axes
	sizes := []int{len(a.Programs), len(a.Trojans), len(a.Detectors), len(a.Taps), len(a.Budgets)}
	n := uint64(1)
	if s := a.Seeds; s != nil && len(s.Values) == 0 && s.To > s.From {
		// (To-From)/step + 1 values, counted without overflow.
		n = (s.To - s.From) / max(s.Step, 1)
		if n == math.MaxUint64 {
			return n
		}
		n++
	} else if s != nil {
		sizes = append(sizes, len(s.Values))
	}
	for _, k := range sizes {
		if hi, lo := bits.Mul64(n, uint64(max(k, 1))); hi == 0 {
			n = lo
		} else {
			return math.MaxUint64
		}
	}
	if n+uint64(len(g.Extra)) < n {
		return math.MaxUint64
	}
	return n + uint64(len(g.Extra))
}

// programLabel derives a deterministic label for a program axis value.
func programLabel(p ProgramSpec) string {
	var parts []string
	switch {
	case p.File != "":
		base := filepath.Base(p.File)
		parts = append(parts, strings.TrimSuffix(base, filepath.Ext(base)))
	case p.Box != nil:
		parts = append(parts, fmt.Sprintf("box%gx%gx%g", p.Box.X, p.Box.Y, p.Box.Z))
	case p.Part != "":
		parts = append(parts, p.Part)
	default:
		parts = append(parts, "testpart")
	}
	if p.Flow != 0 {
		parts = append(parts, fmt.Sprintf("flow%g", p.Flow))
	}
	if p.Flaw3D != 0 {
		parts = append(parts, fmt.Sprintf("flaw3d-%d", p.Flaw3D))
	}
	// The default part is implied; a tampered or flow-scaled default
	// labels itself by the modification alone ("flaw3d-3", "flow1.5").
	if len(parts) > 1 && parts[0] == "testpart" && p.Part == "" {
		parts = parts[1:]
	}
	return strings.Join(parts, "-")
}

// axisValue is one resolved value of one axis: the label it contributes
// to cell names/filters and the mutation it applies to the cell spec.
type axisValue struct {
	label string
	apply func(*ScenarioSpec)
}

// gridAxis is one resolved axis: its filter key and values. An absent
// axis has a single no-op value and contributes no name label.
type gridAxis struct {
	key     string
	present bool
	values  []axisValue
}

// seedAxis is the seed axis's index in axes()'s expansion order.
const seedAxis = 5

// axes resolves the sweep dimensions in their fixed expansion order
// (programs, trojans, detectors, taps, budgets, seeds — seeds innermost,
// so paired-seed runs of one configuration stay adjacent).
func (g *GridSpec) axes() ([]gridAxis, error) {
	noop := []axisValue{{}}
	out := []gridAxis{
		{key: "program", values: noop},
		{key: "trojan", values: noop},
		{key: "detector", values: noop},
		{key: "tap", values: noop},
		{key: "budget", values: noop},
		{key: "seed", values: noop},
	}
	conflict := func(axis, field string, set bool) error {
		if set {
			return fmt.Errorf("offramps: grid %q: the %s axis conflicts with template.%s", g.Name, axis, field)
		}
		return nil
	}

	if len(g.Axes.Programs) > 0 {
		zero := ProgramSpec{}
		if err := conflict("programs", "program", g.Template.Program != zero); err != nil {
			return nil, err
		}
		ax := gridAxis{key: "program", present: true}
		for _, p := range g.Axes.Programs {
			p := p
			label := p.Label
			if label == "" {
				label = programLabel(p.ProgramSpec)
			}
			ax.values = append(ax.values, axisValue{label, func(s *ScenarioSpec) { s.Program = p.ProgramSpec }})
		}
		out[0] = ax
	}
	if len(g.Axes.Trojans) > 0 {
		if err := conflict("trojans", "trojan", g.Template.Trojan != nil); err != nil {
			return nil, err
		}
		ax := gridAxis{key: "trojan", present: true}
		for _, t := range g.Axes.Trojans {
			t := t
			label := t.Label
			if label == "" {
				label = t.Name
				if label == "" {
					label = "clean"
				}
			}
			ax.values = append(ax.values, axisValue{label, func(s *ScenarioSpec) {
				if t.Name == "" {
					s.Trojan = nil
					return
				}
				s.Trojan = &TrojanSpec{Name: t.Name, Params: t.Params}
			}})
		}
		out[1] = ax
	}
	if len(g.Axes.Detectors) > 0 {
		if err := conflict("detectors", "detector", g.Template.Detector != nil); err != nil {
			return nil, err
		}
		ax := gridAxis{key: "detector", present: true}
		for _, d := range g.Axes.Detectors {
			d := d
			label := d.Label
			if label == "" {
				label = d.Name
				if label == "" {
					label = "none"
				}
			}
			ax.values = append(ax.values, axisValue{label, func(s *ScenarioSpec) {
				if d.Name == "" {
					s.Detector = nil
					return
				}
				spec := d.DetectorSpec
				s.Detector = &spec
			}})
		}
		out[2] = ax
	}
	if len(g.Axes.Taps) > 0 {
		if err := conflict("taps", "tap", g.Template.Tap != ""); err != nil {
			return nil, err
		}
		ax := gridAxis{key: "tap", present: true}
		for _, t := range g.Axes.Taps {
			t := t
			label := t
			if label == "" {
				label = "arduino"
			}
			ax.values = append(ax.values, axisValue{label, func(s *ScenarioSpec) { s.Tap = t }})
		}
		out[3] = ax
	}
	if len(g.Axes.Budgets) > 0 {
		if err := conflict("budgets", "budget", g.Template.Budget != 0); err != nil {
			return nil, err
		}
		ax := gridAxis{key: "budget", present: true}
		for _, b := range g.Axes.Budgets {
			b := b
			ax.values = append(ax.values, axisValue{"budget" + b.String(), func(s *ScenarioSpec) { s.Budget = b }})
		}
		out[4] = ax
	}
	if g.Axes.Seeds != nil {
		if err := conflict("seeds", "seed/seedDelta", g.Template.Seed != 0 || g.Template.SeedDelta != 0); err != nil {
			return nil, err
		}
		if g.SeedPolicy != nil {
			return nil, fmt.Errorf("offramps: grid %q: seedPolicy conflicts with a seeds axis", g.Name)
		}
		vals, err := g.Axes.Seeds.expand()
		if err != nil {
			return nil, fmt.Errorf("offramps: grid %q: %w", g.Name, err)
		}
		ax := gridAxis{key: "seed", present: true}
		for _, v := range vals {
			v := v
			if g.Axes.Seeds.Delta {
				ax.values = append(ax.values, axisValue{fmt.Sprintf("d%d", v), func(s *ScenarioSpec) { s.SeedDelta = v }})
			} else {
				if v == 0 {
					return nil, fmt.Errorf("offramps: grid %q: absolute seed 0 is reserved (use delta seeds)", g.Name)
				}
				ax.values = append(ax.values, axisValue{fmt.Sprintf("s%d", v), func(s *ScenarioSpec) { s.Seed = v }})
			}
		}
		out[5] = ax
	}
	return out, nil
}

// Expand materializes the grid into a complete SuiteSpec: extra
// scenarios first (verbatim), then every cross-product cell that
// survives the filters, named by the labels of the multi-valued axes
// and validated as a suite. Expansion is pure and deterministic — same
// grid, same suite.
//
// The suite also carries the grid's progressive layout, which
// SuiteSpec.Scheduler deals under a non-zero sched.Config: one cell per
// point on the swept non-seed axes, holding that point's scenario names
// in seed order, plus the extra scenarios. The layout comes from the
// same walk as the suite, so cell order, coordinates and seed grouping
// are exactly as deterministic as the suite itself.
func (g *GridSpec) Expand() (*SuiteSpec, error) {
	if g.Name == "" {
		return nil, fmt.Errorf("offramps: grid spec needs a name")
	}
	// Checked before anything is materialized: a seed range alone can
	// ask for 2^64 values.
	if n := gridProduct(g); n > maxGridScenarios {
		return nil, fmt.Errorf("offramps: grid %q: expands to more than %d scenarios", g.Name, maxGridScenarios)
	}
	if g.SeedPolicy != nil && (g.Template.Seed != 0 || g.Template.SeedDelta != 0) {
		return nil, fmt.Errorf("offramps: grid %q: seedPolicy conflicts with template seed fields", g.Name)
	}
	axes, err := g.axes()
	if err != nil {
		return nil, err
	}
	// A filter naming an axis the grid does not sweep would silently
	// never match (labels carry swept axes only) — reject it instead.
	present := make(map[string]bool, len(axes))
	for _, ax := range axes {
		if ax.present {
			present[ax.key] = true
		}
	}
	for _, f := range append(append([]GridFilter{}, g.Include...), g.Exclude...) {
		if f.isEmpty() {
			return nil, fmt.Errorf("offramps: grid %q: empty include/exclude filter matches nothing", g.Name)
		}
		for axis, val := range map[string]string{
			"program": f.Program, "trojan": f.Trojan, "detector": f.Detector, "tap": f.Tap,
		} {
			if val != "" && !present[axis] {
				return nil, fmt.Errorf("offramps: grid %q: filter references the %s axis, which the grid does not sweep", g.Name, axis)
			}
		}
	}

	// The progressive layout shadows the walk: Dims are the present
	// non-seed axes' cardinalities, a cell is one coordinate on them, and
	// the seed axis (innermost) groups each cell's scenarios in seed
	// order.
	seeds := len(axes[seedAxis].values)
	layout := &sched.Grid{}
	for ai, ax := range axes {
		if ax.present && ai != seedAxis {
			layout.Dims = append(layout.Dims, len(ax.values))
		}
	}
	for _, ex := range g.Extra {
		layout.Extras = append(layout.Extras, ex.Name)
	}
	lastCell := -1

	// Walk the cross-product in fixed nested order. idx is the cell's
	// position in the *full* product, so seed-policy deltas are stable
	// under filter changes.
	var cells []ScenarioSpec
	counters := make([]int, len(axes))
	total := 1
	for _, ax := range axes {
		total *= len(ax.values)
	}
	for idx := 0; idx < total; idx++ {
		spec := g.Template
		labels := make(map[string]string, len(axes))
		var nameParts []string
		if spec.Name != "" {
			nameParts = append(nameParts, spec.Name)
		}
		for ai, ax := range axes {
			v := ax.values[counters[ai]]
			if v.apply != nil {
				v.apply(&spec)
			}
			if ax.present {
				labels[ax.key] = v.label
				if len(ax.values) > 1 {
					nameParts = append(nameParts, v.label)
				}
			}
		}
		if len(nameParts) == 0 {
			nameParts = append(nameParts, "cell")
		}
		spec.Name = strings.Join(nameParts, "/")
		if g.SeedPolicy != nil {
			step := g.SeedPolicy.DeltaStep
			if step == 0 {
				step = 1
			}
			spec.SeedDelta = g.SeedPolicy.DeltaStart + uint64(idx)*step
		}

		keep := len(g.Include) == 0
		for _, f := range g.Include {
			ok, err := f.matches(spec.Name, labels)
			if err != nil {
				return nil, fmt.Errorf("offramps: grid %q: include: %w", g.Name, err)
			}
			if ok {
				keep = true
				break
			}
		}
		for _, f := range g.Exclude {
			ok, err := f.matches(spec.Name, labels)
			if err != nil {
				return nil, fmt.Errorf("offramps: grid %q: exclude: %w", g.Name, err)
			}
			if ok {
				keep = false
				break
			}
		}
		if keep {
			cells = append(cells, spec)
			// Seeds are the innermost axis, so a cell's kept scenarios are
			// consecutive in the walk and idx/seeds — the mixed-radix
			// number of the non-seed counters — names the cell.
			if idx/seeds == lastCell {
				c := &layout.Cells[len(layout.Cells)-1]
				c.Seeds = append(c.Seeds, spec.Name)
			} else {
				lastCell = idx / seeds
				layout.Cells = append(layout.Cells, newLayoutCell(axes, counters, nameParts, spec.Name))
			}
		}

		// Odometer increment, innermost (seeds) axis fastest.
		for ai := len(axes) - 1; ai >= 0; ai-- {
			counters[ai]++
			if counters[ai] < len(axes[ai].values) {
				break
			}
			counters[ai] = 0
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("offramps: grid %q: filters removed every cell", g.Name)
	}

	suite := &SuiteSpec{
		Name:      g.Name,
		BaseSeed:  g.BaseSeed,
		Budget:    g.Budget,
		Workers:   g.Workers,
		Scenarios: append(append([]ScenarioSpec{}, g.Extra...), cells...),
		dir:       g.dir,
		layout:    layout,
	}
	if g.CompareWith != "" {
		for _, c := range cells {
			suite.Compare = append(suite.Compare, CompareSpec{Golden: g.CompareWith, Suspect: c.Name})
		}
	}
	suite.Compare = append(suite.Compare, g.Compare...)
	if err := suite.Validate(); err != nil {
		return nil, fmt.Errorf("offramps: grid %q: expanded suite invalid: %w", g.Name, err)
	}
	return suite, nil
}

// newLayoutCell starts the layout cell of the scenario the walk is at:
// its coordinate is the present non-seed axes' counters, and its key is
// the scenario's name parts minus the seed axis's label — the seed axis
// is last, so its label (when it contributes one) is the final part.
func newLayoutCell(axes []gridAxis, counters []int, nameParts []string, name string) sched.Cell {
	var coord []int
	for ai, ax := range axes {
		if ax.present && ai != seedAxis {
			coord = append(coord, counters[ai])
		}
	}
	seeds := axes[seedAxis].values
	if axes[seedAxis].present && len(seeds) > 1 {
		nameParts = nameParts[:len(nameParts)-1]
	}
	return sched.Cell{
		Key:   cmp.Or(strings.Join(nameParts, "/"), "cell"),
		Coord: coord,
		Seeds: append(make([]string, 0, len(seeds)), name),
	}
}

// LoadSuiteOrGrid loads a spec file as a plain suite, or as a grid
// expanded into one (carrying its layout, see Expand). forceGrid forces
// grid interpretation; without it the committed grid_*.json naming
// convention decides, so spec globs with grids mixed in keep working.
// This is the one loading path shared by cmd/suite, the farm
// coordinator and the paper experiments.
func LoadSuiteOrGrid(path string, forceGrid bool) (*SuiteSpec, error) {
	return loadSuiteOrGrid(os.ReadFile, path, forceGrid)
}

// loadSuiteOrGrid loads the spec file at path through read (os.ReadFile,
// or the embedded specFiles' ReadFile) as LoadSuiteOrGrid describes. A
// missing name defaults to the file's base name.
func loadSuiteOrGrid(read func(string) ([]byte, error), path string, forceGrid bool) (s *SuiteSpec, err error) {
	data, err := read(path)
	if err != nil {
		return nil, fmt.Errorf("offramps: reading spec: %w", err)
	}
	base, dir := filepath.Base(path), filepath.Dir(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	if forceGrid || strings.HasPrefix(base, "grid_") {
		var g *GridSpec
		if g, err = ParseGridSpec(data, dir); err == nil {
			g.Name = cmp.Or(g.Name, name)
			s, err = g.Expand()
		}
	} else if s, err = ParseSuiteSpec(data, dir); err == nil {
		s.Name = cmp.Or(s.Name, name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Sharding: a stable key per scenario partitions a suite into disjoint,
// reproducible slices for CI matrix fan-out and remote execution.

// ShardOf returns the 0-based shard that owns the named scenario among
// count shards. The key is an FNV-1a hash of the scenario name, so a
// scenario's shard never depends on expansion order — reordering or
// filtering a grid does not reshuffle the slices.
//
// Static shards and the farm's dynamic lease queue (internal/farm) are
// two partitions of the same name space: `suite -shard i/N` fixes the
// partition up front by this hash, while a farm coordinator hands out
// the very same scenario names one lease at a time. Either way each
// name is owned exactly once, runs with its golden closure (Subset),
// and the stitched reports are byte-identical — `gridgen -names -shard i/N`
// previews the static slices, `gridgen -names` lists the farm queue's
// seed order.
func ShardOf(name string, count int) int {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(count))
}

// ParseShard parses the "i/N" shard notation (1-based index). The whole
// string must be the pattern — trailing garbage ("2/4x", "1/4/8") is an
// error, not a silently truncated slice.
func ParseShard(s string) (index, count int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if ok {
		var ia, ib int
		if ia, err = strconv.Atoi(a); err == nil {
			if ib, err = strconv.Atoi(b); err == nil {
				index, count = ia, ib
			}
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("offramps: shard must be \"i/N\", got %q", s)
	}
	if count < 1 || index < 1 || index > count {
		return 0, 0, fmt.Errorf("offramps: shard %d/%d out of range", index, count)
	}
	return index, count, nil
}

// Shard returns the runnable slice of the suite for shard index
// (1-based) of count: the scenarios ShardOf assigns to it plus their
// golden closure (Subset). The owned sets of the count shards partition
// the suite's scenarios exactly; comparisons go with their suspect.
// Helper goldens may run in several shards — the golden cache makes the
// repeats cheap and determinism makes their rows bit-identical — so the
// shards' concatenated streams merge (first copy wins) into the
// unsharded run's report.
func (s *SuiteSpec) Shard(index, count int) (*SuiteSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if count < 1 || index < 1 || index > count {
		return nil, fmt.Errorf("offramps: shard %d/%d out of range", index, count)
	}
	var names []string
	for _, sc := range s.Scenarios {
		if ShardOf(sc.Name, count) == index-1 {
			names = append(names, sc.Name)
		}
	}
	return s.Subset(names...)
}

// Subset returns the runnable sub-suite for exactly the named
// scenarios: them plus their golden closure (golden references of
// named detectors and named comparisons, transitively) as helper runs,
// and the comparisons whose suspect is named. This is the closure logic
// both distribution mechanisms share: Shard calls it with a hash-keyed
// slice, and a farm worker (internal/farm) calls it with the single
// scenario name it leased, so a lease carries its helper golden runs
// the same way a static shard does.
func (s *SuiteSpec) Subset(names ...string) (*SuiteSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(s.Scenarios))
	for _, sc := range s.Scenarios {
		known[sc.Name] = true
	}
	owned := make(map[string]bool, len(names))
	for _, name := range names {
		if !known[name] {
			return nil, fmt.Errorf("offramps: suite %q has no scenario %q", s.Name, name)
		}
		owned[name] = true
	}

	// need = owned ∪ golden closure. A needed scenario's own detector may
	// reference another golden, so iterate to a fixpoint.
	need := make(map[string]bool, len(owned))
	for name := range owned {
		need[name] = true
	}
	var compares []CompareSpec
	for _, cmp := range s.Compare {
		if owned[cmp.Suspect] {
			compares = append(compares, cmp)
			need[cmp.Golden] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sc := range s.Scenarios {
			if need[sc.Name] && sc.Detector != nil && sc.Detector.Golden != "" && !need[sc.Detector.Golden] {
				need[sc.Detector.Golden] = true
				changed = true
			}
		}
	}

	sub := &SuiteSpec{
		Name:     s.Name,
		BaseSeed: s.BaseSeed,
		Budget:   s.Budget,
		Workers:  s.Workers,
		Compare:  compares,
		dir:      s.dir,
	}
	for _, sc := range s.Scenarios {
		if need[sc.Name] {
			sub.Scenarios = append(sub.Scenarios, sc)
		}
	}
	return sub, nil
}
