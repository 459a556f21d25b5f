package firmware

import (
	"fmt"
	"math"

	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// moveEntry is the pre-resolved execution of one G0/G1 command: whether
// the modal evaluation produced a move at all (resolved), whether that
// move has physical extent (motion — a zero-distance move still enables
// the motors, so the distinction matters for event-order identity), the
// planned pulse trains, and each train's rise-offset table (rises, in
// signal.Axes order; nil for a train whose shape has none). Entries and
// their tables are immutable once compiled.
type moveEntry struct {
	resolved bool
	motion   bool
	pm       plannedMove
	rises    [4][]uint32
}

// trainShape is what a step train's rise offsets depend on: its move's
// profile and its pulse count. Trains of one shape rise at the same
// offsets from their own origins.
type trainShape struct {
	prof profile
	n    int
}

// Compiled is an immutable pre-planned execution of one program under
// one firmware configuration: every G0/G1 resolved through the modal
// state, homing and G92 frame effects folded in, each move's
// trapezoidal profile planned, and the rise offsets of every train
// shape the program repeats tabulated. It is the only way the firmware
// runs a program (Load compiles one when given none). N same-program
// scenarios share one Compiled — parse/plan cost is paid once per
// program instead of once per run — and simulate from it with
// byte-identical results, because planning is deterministic in
// (program, config) and independent of the run's time-noise seed. Safe
// for concurrent readers.
type Compiled struct {
	prog    gcode.Program
	entries []moveEntry
}

// Bounds on what a move may ask of the simulator. A target's microstep
// count must be exactly representable in a float64 (and so far inside
// int64), and a move's or dwell's duration must fit in half of
// sim.Time's range, so the run's clock can add it without overflow.
const (
	maxTargetSteps = 1 << 53
	maxMoveSeconds = float64(1<<62) / float64(sim.Second)
)

// Compile dry-runs the program's geometry under cfg: it tracks the
// modal G-code state, machine position, and G92 offsets, and plans
// every move. It fails on an invalid config and on a command the
// simulator cannot represent: a move with a non-finite target, a target
// of 2^53 microsteps or more, or a duration that is not finite or does
// not fit in sim.Time, and a G4 dwell whose duration is not finite or
// does not fit either. Last it tabulates rise offsets (riseTables).
// The returned plan is only valid for firmwares built with an identical
// motion configuration (StepsPerMM, feedrates, acceleration, pulse
// timing); seed and time-noise settings do not affect planning and may
// differ.
func Compile(prog gcode.Program, cfg Config) (*Compiled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := gcode.NewState()
	var steps [4]int64    // machine position, microsteps, in signal.Axes order
	var offset [4]float64 // machineMM − logicalMM per axis (G92)
	c := &Compiled{prog: prog, entries: make([]moveEntry, len(prog))}
	for i, cmd := range prog {
		switch cmd.Code {
		case "G0", "G1":
			mv, ok := st.Apply(cmd)
			e, err := resolveMove(&cfg, steps, offset, mv, ok)
			if err != nil {
				return nil, fmt.Errorf("firmware: command %d %q (line %d): %w", i+1, cmd.String(), cmd.Line, err)
			}
			c.entries[i] = e
			if e.motion {
				for j, ax := range e.pm.axes {
					if ax.negative {
						steps[j] -= int64(ax.steps)
					} else {
						steps[j] += int64(ax.steps)
					}
				}
			}
		case "G4":
			if d := dwellSeconds(cmd); math.IsInf(d, 0) || !(d <= maxMoveSeconds) {
				return nil, fmt.Errorf("firmware: command %d %q (line %d): dwell %g s does not fit the simulation clock", i+1, cmd.String(), cmd.Line, d)
			}
		case "G28":
			// Net effect of double-tap homing: each homed axis's machine
			// position and G92 offset are zeroed.
			for _, a := range homedAxes(cfg.HomingOrder, cmd) {
				steps[a-signal.AxisX] = 0
				offset[a-signal.AxisX] = 0
			}
			st.Apply(cmd)
		case "G90", "G91", "M82", "M83":
			st.Apply(cmd)
		case "G92":
			// Logical coordinates change, machine position does not: the
			// offset absorbs the difference.
			st.Apply(cmd)
			for j, val := range [4]float64{st.Pos.X, st.Pos.Y, st.Pos.Z, st.Pos.E} {
				a := signal.Axes[j]
				if cmd.Has(a.String()[0]) {
					offset[j] = float64(steps[j])/cfg.StepsPerMM[a] - val
				}
			}
		}
	}
	c.riseTables()
	return c, nil
}

// riseTables gives each train shape that two or more trains of the
// program share one table of its rise offsets, in nanoseconds, and
// hands it to every train of that shape. Two limits bound the memory a
// plan holds for as long as runs share it: a shape used once gets no
// table, so every entry serves at least two pulses of each run, and
// neither does a shape whose offsets reach 2^32 ns (4.29 s), so every
// entry fits a uint32; a print's moves take well under that. Trains
// without a table compute each offset in closed form, with the
// expression the table holds.
func (c *Compiled) riseTables() {
	uses := make(map[trainShape]int)
	for i := range c.entries {
		pm := &c.entries[i].pm
		for _, ax := range pm.axes {
			if ax.steps > 0 {
				uses[trainShape{pm.prof, ax.steps}]++
			}
		}
	}
	tables := make(map[trainShape][]uint32)
	for i := range c.entries {
		e := &c.entries[i]
		for j, ax := range e.pm.axes {
			s := trainShape{e.pm.prof, ax.steps}
			if ax.steps == 0 || uses[s] < 2 {
				continue
			}
			off, ok := tables[s]
			if !ok {
				off = s.riseTable()
				tables[s] = off
			}
			e.rises[j] = off
		}
	}
}

// riseTable returns the shape's rise offsets, or nil when one does not
// fit a uint32.
func (s trainShape) riseTable() []uint32 {
	// The last pulse rises latest: checking it first keeps a shape that
	// cannot fit from allocating its table.
	if s.prof.riseOffset(s.n-1, s.n) > math.MaxUint32 {
		return nil
	}
	off := make([]uint32, s.n)
	for k := range off {
		t := s.prof.riseOffset(k, s.n)
		if t < 0 || t > math.MaxUint32 {
			return nil
		}
		off[k] = uint32(t)
	}
	return off
}

// dwellSeconds is the pause a G4 asks for: P milliseconds, else S
// seconds, else none. A negative pause runs as none.
func dwellSeconds(cmd gcode.Command) float64 {
	if v, ok := cmd.Float('P'); ok {
		return v / 1000
	}
	if v, ok := cmd.Float('S'); ok {
		return v
	}
	return 0
}

// homedAxes returns the axes a G28 homes, in the configured order: the
// X, Y and Z axes it names, or all of them when it names none.
func homedAxes(order []signal.Axis, cmd gcode.Command) []signal.Axis {
	all := !cmd.Has('X') && !cmd.Has('Y') && !cmd.Has('Z')
	var axes []signal.Axis
	for _, a := range order {
		if a < signal.AxisX || a > signal.AxisZ {
			continue
		}
		if all || cmd.Has(a.String()[0]) {
			axes = append(axes, a)
		}
	}
	return axes
}

// resolveMove turns one modal-evaluated move into its execution plan.
// Compile is its only caller and applies the plan's position updates;
// steps and offset are indexed in signal.Axes order.
func resolveMove(cfg *Config, steps [4]int64, offset [4]float64, mv gcode.Move, ok bool) (moveEntry, error) {
	if !ok {
		return moveEntry{}, nil // feedrate-only or zero-length move
	}
	e := moveEntry{resolved: true}

	// Resolve logical targets into machine steps.
	var deltas [4]int
	targets := [4]float64{
		mv.To.X + offset[0],
		mv.To.Y + offset[1],
		mv.To.Z + offset[2],
		mv.To.E + offset[3],
	}
	for i, a := range signal.Axes {
		target := math.Round(targets[i] * cfg.StepsPerMM[a])
		if !(math.Abs(target) < maxTargetSteps) {
			return e, fmt.Errorf("%v target %g mm is outside ±2^53 microsteps", a, targets[i])
		}
		deltas[i] = int(int64(target) - steps[i])
	}

	// Feedrate resolution: F is mm/min; clamp per-axis.
	feed := mv.Feedrate
	if feed <= 0 {
		feed = cfg.DefaultFeedrate
	}
	speed := feed / 60 // mm/s
	dist := mv.From.Distance(mv.To)
	if dist < 1e-12 {
		dist = math.Abs(mv.Extrusion())
	}
	if dist < 1e-12 {
		return e, nil // resolved but no physical motion
	}
	axisDist := [4]float64{}
	for i, a := range signal.Axes {
		axisDist[i] = math.Abs(float64(deltas[i])) / cfg.StepsPerMM[a]
		if axisDist[i] < 1e-12 {
			continue
		}
		axisSpeed := speed * axisDist[i] / dist
		if limit := cfg.MaxFeedrate[a]; axisSpeed > limit {
			speed *= limit / axisSpeed
		}
	}

	e.motion = true
	e.pm = planMove(deltas, dist, speed, cfg.Acceleration, cfg.MaxStepRate)
	if d := e.pm.prof.total(); !(d < maxMoveSeconds) {
		return e, fmt.Errorf("move duration %g s does not fit the simulation clock", d)
	}
	return e, nil
}
