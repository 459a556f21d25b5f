package fpga

import (
	"reflect"
	"slices"
	"testing"

	"offramps/internal/capture"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// Each test below builds the same rig twice — lazily, and eagerly with
// a no-op Watch on every Arduino STEP line — drives it with hand-placed
// step trains, and asserts both runs leave identical state. The rises
// are placed on exporter ticks and kills to pin the tie rule of lazy.go.

const (
	lzExport = sim.Millisecond       // export period of the rig
	lzWidth  = 2 * sim.Microsecond   // STEP pulse width
	lzUntil  = 500 * sim.Millisecond // end of the crossing tests' runs
)

// lazyRig is a homed board with a plant behind it and a minimal stand-in
// for the firmware: it plans moves of explicit rises and hands their
// trains to the board, or emits them eagerly as the firmware does.
type lazyRig struct {
	t      *testing.T
	e      *sim.Engine
	ard    *signal.Bus
	ramps  *signal.Bus
	board  *Board
	plant  *printer.Plant
	killed bool
	// recs records each tapped side's export stream (nil when untapped).
	recs [2]*capture.Recording
	// accepted counts trains the board took lazily.
	accepted int
}

func newLazyRig(t *testing.T, tap TapSide, eager bool) *lazyRig {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Tap = tap
	r := newUnhomedRig(t, cfg, eager, printer.DefaultConfig())
	r.home(signal.AxisX, signal.AxisY, signal.AxisZ)
	return r
}

// newUnhomedRig builds a rig from board configuration cfg, exporting
// every lzExport, on a plant with configuration pcfg. Its homing
// presses are left to the caller.
func newUnhomedRig(t *testing.T, cfg Config, eager bool, pcfg printer.Config) *lazyRig {
	t.Helper()
	e := sim.NewEngine()
	ard, ramps := signal.NewBus(e), signal.NewBus(e)
	cfg.ExportPeriod = lzExport
	b, err := NewBoard(e, ard, ramps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := printer.NewPlant(e, ramps, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if eager {
		for _, a := range signal.Axes {
			ard.Step(a).Watch(func(sim.Time, signal.Level) {})
		}
	}
	r := &lazyRig{t: t, e: e, ard: ard, ramps: ramps, board: b, plant: p}
	for _, side := range []TapSide{TapArduino, TapRAMPS} {
		if b.FingerprintAt(side) != nil {
			r.recs[side] = recordSide(t, b, side)
		}
	}
	return r
}

// txs returns the primary tap's recorded transactions.
func (r *lazyRig) txs() []capture.Transaction { return r.recs[r.board.PrimaryTap()].Transactions }

// home double-taps the given axes' MIN switches, in order, from 10 ms
// on, 100 ms per axis: X, Y and Z complete a homing cycle at 260 ms.
func (r *lazyRig) home(axes ...signal.Axis) {
	at := 10 * sim.Millisecond
	for _, a := range axes {
		at = pressSequence(r.e, r.ramps.MinEndstop(a), at)
	}
}

// rigTrain is one axis's train in the rig: explicit rises, emitted
// eagerly through the same event structure as the firmware's stepTrain
// when the board declines it.
type rigTrain struct {
	rig   *lazyRig
	line  *signal.Line
	rises []sim.Time
	k     int
}

func (tr *rigTrain) RiseAt(k int) sim.Time { return tr.rises[k] }
func (tr *rigTrain) Done()                 {}

func (tr *rigTrain) FireEdge(arg uint64) {
	e := tr.rig.e
	if arg == 1 {
		tr.line.Set(signal.Low)
		return
	}
	if tr.rig.killed {
		return
	}
	tr.line.Set(signal.High)
	e.ScheduleEdge(e.Now()+lzWidth, tr, 1)
	tr.k++
	if tr.k < len(tr.rises) {
		e.ScheduleEdge(tr.rises[tr.k], tr, 0)
	}
}

// move plans, at instant at, one positive move with the given rises per
// axis, ending at until, and offers the board all of its trains. kill
// names the ticker that may halt the machine.
func (r *lazyRig) move(at, until sim.Time, kill signal.Tick, rises map[signal.Axis][]sim.Time) {
	r.moveDir(signal.Low, at, until, kill, rises)
}

// moveDir is move with dir on the DIR lines of the moving axes: Low
// moves away from the MIN switches, High toward them.
func (r *lazyRig) moveDir(dir signal.Level, at, until sim.Time, kill signal.Tick, rises map[signal.Axis][]sim.Time) {
	r.e.Schedule(at, func() {
		r.board.Sync()
		now := r.e.Now()
		for _, a := range signal.Axes {
			if len(rises[a]) > 0 {
				r.ard.Dir(a).Set(dir)
			}
		}
		var move []signal.Train
		var trains []*rigTrain
		for _, a := range signal.Axes {
			rs := rises[a]
			if len(rs) == 0 {
				continue
			}
			gap := until - now
			for k := 1; k < len(rs); k++ {
				if d := rs[k] - rs[k-1]; d < gap {
					gap = d
				}
			}
			tr := &rigTrain{rig: r, line: r.ard.Step(a), rises: rs}
			trains = append(trains, tr)
			move = append(move, signal.Train{
				Axis: a, Rises: tr, N: len(rs), Width: lzWidth,
				Issued: now, MinGap: gap - 1, Until: until, Kill: kill,
			})
		}
		if r.board.Accept(move) {
			r.accepted += len(move)
			return
		}
		for _, tr := range trains {
			r.e.ScheduleEdge(tr.rises[0], tr, 0)
		}
	})
}

// killAt starts a kill ticker at origin; its n-th event halts the
// machine the way the firmware does.
func (r *lazyRig) killAt(origin, period sim.Time, n int) signal.Tick {
	r.e.Schedule(origin, func() {
		ticks := 0
		r.e.Ticker(period, func(sim.Time) {
			if ticks++; ticks != n {
				return
			}
			r.board.Halt()
			r.killed = true
			for _, a := range signal.Axes {
				r.ard.Enable(a).Set(signal.High)
			}
		})
	})
	return signal.Tick{Origin: origin, Period: period}
}

// lazyState is everything a lazy run must reproduce.
type lazyState struct {
	Recordings   []*capture.Recording
	Fingerprints []capture.Fingerprint
	Counts       [][4]int64
	Deposits     []printer.Deposit
	Position     [4]float64
	Seen, Taken  [4]uint64
	Edges        [8]uint64
	Levels       [8]signal.Level
	LastChange   [8]sim.Time
	// The X, Y and Z MIN lines, Arduino then RAMPS side.
	MinEdges      [6]uint64
	MinLevels     [6]signal.Level
	MinLastChange [6]sim.Time
	// The tap detectors' edge counts, one row per tapped side.
	Rising, Falling [][4]uint64
}

func (r *lazyRig) state() lazyState {
	var s lazyState
	// The MIN lines come first, so no other reader syncs them.
	for i, a := range signal.Axes[:3] {
		for j, bus := range []*signal.Bus{r.ard, r.ramps} {
			l := bus.MinEndstop(a)
			s.MinEdges[2*i+j] = l.Edges()
			s.MinLevels[2*i+j] = l.Level()
			s.MinLastChange[2*i+j] = l.LastChange()
		}
	}
	for _, side := range []TapSide{TapArduino, TapRAMPS} {
		if rec := r.recs[side]; rec != nil {
			s.Recordings = append(s.Recordings, rec)
			s.Fingerprints = append(s.Fingerprints, *r.board.FingerprintAt(side))
			tk := r.board.TrackerAt(side)
			s.Counts = append(s.Counts, [4]int64{tk.Count(signal.AxisX), tk.Count(signal.AxisY), tk.Count(signal.AxisZ), tk.Count(signal.AxisE)})
			var rising, falling [4]uint64
			for i, a := range signal.Axes {
				rising[i], falling[i] = tk.edges[a].Rising(), tk.edges[a].Falling()
			}
			s.Rising = append(s.Rising, rising)
			s.Falling = append(s.Falling, falling)
		}
	}
	s.Deposits = r.plant.Part().Deposits()
	for i, a := range signal.Axes {
		s.Position[i] = r.plant.Position(a)
		s.Seen[i] = r.plant.Driver(a).StepsSeen()
		s.Taken[i] = r.plant.Driver(a).StepsTaken()
		for j, l := range []*signal.Line{r.board.Path(a.StepPin()).Source(), r.board.Path(a.StepPin()).Output()} {
			s.Edges[2*i+j] = l.Edges()
			s.Levels[2*i+j] = l.Level()
			s.LastChange[2*i+j] = l.LastChange()
		}
	}
	return s
}

// runBoth drives the scenario on a lazy and an eager rig to until and
// asserts equal state; it returns the lazy rig for further checks.
func runBoth(t *testing.T, tap TapSide, until sim.Time, drive func(r *lazyRig)) *lazyRig {
	t.Helper()
	return runBothOn(t, func(eager bool) *lazyRig { return newLazyRig(t, tap, eager) }, until, drive)
}

// runBothOn is runBoth on rigs that build makes.
func runBothOn(t *testing.T, build func(eager bool) *lazyRig, until sim.Time, drive func(r *lazyRig)) *lazyRig {
	t.Helper()
	var states [2]lazyState
	var lazy *lazyRig
	for i, eager := range []bool{false, true} {
		r := build(eager)
		drive(r)
		if err := r.e.Run(until); err != nil {
			t.Fatal(err)
		}
		states[i] = r.state()
		if eager && r.accepted != 0 {
			t.Fatalf("eager rig accepted %d lazy trains", r.accepted)
		}
		if !eager {
			lazy = r
		}
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("lazy and eager runs differ:\nlazy  %+v\neager %+v", states[0], states[1])
	}
	return lazy
}

// startExport steps X once after homing, which starts the exporters;
// it returns the Arduino-side first-step instant.
func startExport(r *lazyRig) sim.Time {
	r.move(400*sim.Millisecond, 401*sim.Millisecond, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: {lzFirstStep}})
	return lzFirstStep
}

// lzFirstStep is the first step after homing, which startExport emits.
const lzFirstStep = 400*sim.Millisecond + 10*sim.Microsecond

func TestLazyTickOnArduinoRise(t *testing.T) {
	us := sim.Microsecond
	r := runBoth(t, TapArduino, 500*sim.Millisecond, func(r *lazyRig) {
		s0 := startExport(r)
		// Ticks fire at s0 + m·1ms, each scheduled 1ms earlier. X pulse
		// 1 rises on tick 2 but was scheduled after it (follows); Y
		// pulse 1 rises on tick 3 and was scheduled before it
		// (precedes). E ties X at both pulses of X's pulse 0 and 2.
		r.move(s0+500*us, s0+4*sim.Millisecond, signal.Tick{}, map[signal.Axis][]sim.Time{
			signal.AxisX: {s0 + 1700*us, s0 + 2000*us, s0 + 2300*us},
			signal.AxisY: {s0 + 1900*us, s0 + 3000*us, s0 + 3200*us},
			signal.AxisE: {s0 + 1700*us, s0 + 2300*us},
		})
	})
	if r.accepted != 3 {
		t.Fatalf("lazy rig accepted %d trains, want 3", r.accepted)
	}
	txs := r.txs()
	if len(txs) < 3 || txs[1].X != 2 || txs[2].Y != 2 {
		t.Errorf("tick snapshots %+v: want X=2 at tick 2 (its pulse 1 follows), Y=2 at tick 3 (its pulse 1 precedes)", txs[:3])
	}
}

func TestLazyTickOnRAMPSCopy(t *testing.T) {
	us := sim.Microsecond
	d := DefaultConfig().PropagationDelay
	r := runBoth(t, TapRAMPS, 500*sim.Millisecond, func(r *lazyRig) {
		s0 := startExport(r) + d // the RAMPS tap starts at the copy
		// X pulse 1's RAMPS copy lands on tick 2; it was scheduled at
		// its rise, after the tick, so the tick does not count it.
		r.move(s0+500*us, s0+4*sim.Millisecond, signal.Tick{}, map[signal.Axis][]sim.Time{
			signal.AxisX: {s0 + 1700*us - d, s0 + 2000*us - d, s0 + 2300*us - d},
		})
	})
	if r.accepted != 1 {
		t.Fatalf("lazy rig accepted %d trains, want 1", r.accepted)
	}
	if txs := r.txs(); len(txs) < 2 || txs[1].X != 2 {
		t.Errorf("tick snapshots %+v: want X=2 at tick 2", txs)
	}
}

func TestLazyHaltAtRise(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	r := runBoth(t, TapDual, 500*ms, func(r *lazyRig) {
		s0 := startExport(r)
		// Kill ticks fire at s0+1ms+m·1ms; the second, at k, halts.
		k := s0 + 3*ms
		kill := r.killAt(s0+ms, ms, 2)
		// X pulse 1 rises at the kill, scheduled before it: it lands,
		// and its RAMPS copy and fall become real events. Y pulse 1
		// rises at the kill, scheduled after it: it never rises.
		r.move(s0+500*us, k+ms, kill, map[signal.Axis][]sim.Time{
			signal.AxisX: {k - 1200*us, k, k + 300*us},
			signal.AxisY: {k - 400*us, k, k + 300*us},
			signal.AxisE: {k - 1200*us, k - 600*us, k},
		})
	})
	if r.accepted != 3 {
		t.Fatalf("lazy rig accepted %d trains, want 3", r.accepted)
	}
	if got := r.plant.Driver(signal.AxisX).StepsTaken(); got != 1+2 {
		t.Errorf("X steps taken = %d, want 3 (first step, two before the kill)", got)
	}
	if got := r.plant.Driver(signal.AxisY).StepsTaken(); got != 1 {
		t.Errorf("Y steps taken = %d, want 1", got)
	}
}

func TestLazyTrainTiedWithTickRunsEagerly(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	s0 := lzFirstStep
	for _, c := range []struct {
		name   string
		issued sim.Time
		rises  []sim.Time
	}{
		// Pulse 1 rises on tick 2, scheduled exactly one export period
		// earlier — at the tick's own scheduling instant.
		{"pulse 1", s0 + 500*us, []sim.Time{s0 + 1000*us, s0 + 2000*us}},
		// Pulse 0 rises on tick 2, and the move was planned on tick 1.
		{"pulse 0", s0 + ms, []sim.Time{s0 + 2*ms}},
	} {
		r := runBoth(t, TapArduino, 500*ms, func(r *lazyRig) {
			startExport(r)
			r.move(c.issued, s0+3*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: c.rises})
		})
		if r.accepted != 0 {
			t.Errorf("%s: a train tied with a tick was taken lazily", c.name)
		}
	}
}

func TestLazyReadsBetweenRuns(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	var seq [2][]lazyState
	for i, eager := range []bool{false, true} {
		r := newLazyRig(t, TapDual, eager)
		s0 := startExport(r)
		rs := make([]sim.Time, 40)
		for k := range rs {
			rs[k] = s0 + ms + sim.Time(k)*70*us
		}
		r.move(s0+500*us, s0+5*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: rs, signal.AxisE: rs[:20]})
		for until := s0; until < s0+5*ms; until += 37 * us {
			if err := r.e.Run(until); err != nil {
				t.Fatal(err)
			}
			seq[i] = append(seq[i], r.state())
		}
	}
	if !reflect.DeepEqual(seq[0], seq[1]) {
		t.Error("reads between Run chunks differ between lazy and eager rigs")
	}
}

// TestLazyReadsInsideEvents: engine events that fire exactly on the
// rises, RAMPS copies and falls of lazy trains read tracker, line,
// driver and plant state, and must see what the eager rig's events see.
// The readers queued before the run were scheduled before every edge
// they land on, so that edge has not happened yet when they read. The
// readers queued just after a rise, for the next pulse's edges, were
// scheduled after that pulse's rise, which they see, and before its
// other edges, which they do not.
func TestLazyReadsInsideEvents(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	d := DefaultConfig().PropagationDelay
	var seq [2][]lazyState
	for i, eager := range []bool{false, true} {
		r := newLazyRig(t, TapDual, eager)
		read := func() { seq[i] = append(seq[i], r.state()) }
		s0 := startExport(r)
		rs := make([]sim.Time, 20)
		for k := range rs {
			rs[k] = s0 + ms + sim.Time(k)*70*us
		}
		edges := func(rise sim.Time) []sim.Time {
			return []sim.Time{rise, rise + d, rise + lzWidth, rise + lzWidth + d}
		}
		for k, rise := range rs {
			for _, at := range edges(rise) {
				r.e.Schedule(at, read)
			}
			if k+1 < len(rs) {
				next := edges(rs[k+1])
				r.e.Schedule(rise+1, func() {
					for _, at := range next {
						r.e.Schedule(at, read)
					}
				})
			}
		}
		r.move(s0+500*us, s0+5*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: rs, signal.AxisE: rs[:10]})
		if err := r.e.Run(s0 + 6*ms); err != nil {
			t.Fatal(err)
		}
		if want := 2 * (1 - i); r.accepted != want {
			t.Fatalf("eager=%v: rig accepted %d trains, want %d", eager, r.accepted, want)
		}
	}
	if len(seq[0]) != len(seq[1]) {
		t.Fatalf("lazy rig read %d times, eager %d", len(seq[0]), len(seq[1]))
	}
	for k := range seq[0] {
		if !reflect.DeepEqual(seq[0][k], seq[1][k]) {
			t.Fatalf("read %d inside an event differs:\nlazy  %+v\neager %+v", k, seq[0][k], seq[1][k])
		}
	}
}

func TestLazyMoveTakenWholeOrNot(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	var states [2]lazyState
	for i, eager := range []bool{false, true} {
		r := newLazyRig(t, TapDual, eager)
		// A probe on X's STEP line alone declines X's train, so the
		// board must decline E's too: E deposits at X's position.
		r.ard.Step(signal.AxisX).Watch(func(sim.Time, signal.Level) {})
		s0 := startExport(r)
		rs := make([]sim.Time, 30)
		for k := range rs {
			rs[k] = s0 + ms + sim.Time(k)*70*us
		}
		r.move(s0+500*us, s0+5*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: rs, signal.AxisE: rs[:10]})
		if err := r.e.Run(s0 + 6*ms); err != nil {
			t.Fatal(err)
		}
		if r.accepted != 0 {
			t.Fatalf("board took %d trains of a move with a watched axis", r.accepted)
		}
		states[i] = r.state()
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("a partly watched rig differs from the eager one:\n%+v\n%+v", states[0], states[1])
	}
}

// The tests below cross the X MIN switch with lazy trains. The X
// carriage starts 0.1 mm (8 steps) above the switch; after the first
// step that starts the export, a 20-pulse train toward MIN presses it
// mid-train, and one back releases it.

// nearSwitch is the plant configuration of the crossing tests.
func nearSwitch() printer.Config {
	c := printer.DefaultConfig()
	c.StartPos[signal.AxisX] = 0.1
	return c
}

// switchRig is a dual-tap rig on nearSwitch with the given
// propagation delay and the given axes homed.
func switchRig(t *testing.T, eager bool, delay sim.Time, homed ...signal.Axis) *lazyRig {
	cfg := DefaultConfig()
	cfg.Tap = TapDual
	cfg.PropagationDelay = delay
	r := newUnhomedRig(t, cfg, eager, nearSwitch())
	r.home(homed...)
	return r
}

// pulses returns n rises 70 µs apart from from on.
func pulses(from sim.Time, n int) []sim.Time {
	rs := make([]sim.Time, n)
	for k := range rs {
		rs[k] = from + sim.Time(k)*70*sim.Microsecond
	}
	return rs
}

// crossSwitch moves X, with Y alongside, n pulses toward MIN across
// the switch, then X alone 20 pulses back off it; it returns the end of
// the second move.
func crossSwitch(r *lazyRig, n int) sim.Time {
	us, ms := sim.Microsecond, sim.Millisecond
	s0 := startExport(r)
	in := pulses(s0+ms, n)
	r.moveDir(signal.High, s0+500*us, s0+3*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: in, signal.AxisY: in})
	r.move(s0+3*ms+200*us, s0+6*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: pulses(s0+4*ms, 20)})
	return s0 + 6*ms
}

// switchEdges runs drive on an eager rig from build and returns the
// times of its RAMPS-side X MIN edges: r+delay for a crossing pulse
// rising at r.
func switchEdges(t *testing.T, build func(eager bool) *lazyRig, drive func(r *lazyRig)) []sim.Time {
	t.Helper()
	r := build(true)
	var edges []sim.Time
	r.ramps.MinEndstop(signal.AxisX).Watch(func(at sim.Time, _ signal.Level) { edges = append(edges, at) })
	drive(r)
	if err := r.e.Run(lzUntil); err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestLazySwitchCrossingReadsBetweenRuns(t *testing.T) {
	// The default delay, and one wider than a pulse: a copy then lands
	// after its train is over, with nothing but the copy left to apply.
	for _, d := range []sim.Time{DefaultConfig().PropagationDelay, 5 * sim.Microsecond} {
		testSwitchCrossingReads(t, d)
	}
}

func testSwitchCrossingReads(t *testing.T, d sim.Time) {
	build := func(eager bool) *lazyRig {
		return switchRig(t, eager, d, signal.AxisX, signal.AxisY, signal.AxisZ)
	}
	// The homing presses are the first four edges. Cut the train toward
	// MIN after the pulse that presses the switch, so the Arduino copy
	// of the press is the last thing the move leaves; the release
	// happens mid-train.
	edges := switchEdges(t, build, func(r *lazyRig) { crossSwitch(r, 20) })
	if len(edges) != 6 {
		t.Fatalf("delay %v: X MIN edges at %v: want the homing taps, a press and a release", d, edges)
	}
	n := int((edges[4]-d-(lzFirstStep+sim.Millisecond))/(70*sim.Microsecond)) + 1
	if cut := switchEdges(t, build, func(r *lazyRig) { crossSwitch(r, n) }); cut[4] != edges[4] {
		t.Fatalf("delay %v: a %d-pulse train presses the switch at %v, not at %v", d, n, cut[4], edges[4])
	}
	// Read every 37 µs, and around each crossing: just after its RAMPS
	// edge at r+d, so the read replays that edge late, inside
	// [r+d, r+2d) while the Arduino copy is in flight, and at the copy.
	var stops []sim.Time
	for at := 400 * sim.Millisecond; at < 410*sim.Millisecond; at += 37 * sim.Microsecond {
		stops = append(stops, at)
	}
	for _, e := range edges[4:] {
		stops = append(stops, e+1, e+d/2, e+d-1, e+d, e+d+1)
	}
	slices.Sort(stops)
	stops = slices.Compact(stops)
	var seq [2][]lazyState
	for i, eager := range []bool{false, true} {
		r := build(eager)
		crossSwitch(r, n)
		for _, until := range stops {
			if err := r.e.Run(until); err != nil {
				t.Fatal(err)
			}
			seq[i] = append(seq[i], r.state())
		}
		if !eager && r.accepted != 3 {
			t.Fatalf("delay %v: lazy rig accepted %d trains, want the 3 that cross the switch", d, r.accepted)
		}
	}
	for k := range seq[0] {
		if !reflect.DeepEqual(seq[0][k], seq[1][k]) {
			t.Fatalf("delay %v: at %v lazy and eager rigs differ:\nlazy  %+v\neager %+v", d, stops[k], seq[0][k], seq[1][k])
		}
	}
}

func TestLazyWatchedSwitchRunsEagerly(t *testing.T) {
	for _, side := range []string{"arduino", "ramps"} {
		r := runBothOn(t, func(eager bool) *lazyRig {
			r := switchRig(t, eager, DefaultConfig().PropagationDelay, signal.AxisX, signal.AxisY, signal.AxisZ)
			bus := r.ard
			if side == "ramps" {
				bus = r.ramps
			}
			bus.MinEndstop(signal.AxisX).Watch(func(sim.Time, signal.Level) {})
			return r
		}, lzUntil, func(r *lazyRig) { crossSwitch(r, 20) })
		if r.accepted != 0 {
			t.Errorf("%s MIN probe: board took %d trains", side, r.accepted)
		}
	}
}

func TestLazyCrossingBeforeHomingRunsEagerly(t *testing.T) {
	// Z is never homed, so the homing detector still watches the
	// switches.
	r := runBothOn(t, func(eager bool) *lazyRig {
		return switchRig(t, eager, DefaultConfig().PropagationDelay, signal.AxisX, signal.AxisY)
	}, lzUntil, func(r *lazyRig) { crossSwitch(r, 20) })
	if r.accepted != 0 {
		t.Errorf("board took %d trains before homing", r.accepted)
	}
	if n := r.ramps.MinEndstop(signal.AxisX).Edges(); n != 6 {
		t.Errorf("X MIN saw %d edges, want the homing taps, a press and a release", n)
	}
}

func TestLazyHaltMaterializesHeldEndstopCopy(t *testing.T) {
	us, ms := sim.Microsecond, sim.Millisecond
	d := DefaultConfig().PropagationDelay
	build := func(eager bool) *lazyRig {
		return switchRig(t, eager, DefaultConfig().PropagationDelay, signal.AxisX, signal.AxisY, signal.AxisZ)
	}
	s0 := lzFirstStep
	toward := func(r *lazyRig, kill signal.Tick) {
		startExport(r)
		r.moveDir(signal.High, s0+500*us, s0+3*ms, kill, map[signal.Axis][]sim.Time{signal.AxisX: pulses(s0+ms, 20)})
	}
	edges := switchEdges(t, build, func(r *lazyRig) { toward(r, signal.Tick{}) })
	if len(edges) != 5 {
		t.Fatalf("X MIN edges at %v: want the homing taps and a press", edges)
	}
	// The kill lands after the RAMPS-side press, before its Arduino
	// copy: the board holds the copy, and Halt must hand it to the
	// engine. A probe added after the kill sees it fire on time.
	k := edges[4] + d/2
	type seen struct{ at, now sim.Time }
	var states [2]lazyState
	var got [2][]seen
	for i, eager := range []bool{false, true} {
		r := build(eager)
		toward(r, r.killAt(k-2*ms, ms, 2))
		r.e.Schedule(k+1, func() {
			r.ard.MinEndstop(signal.AxisX).Watch(func(at sim.Time, _ signal.Level) {
				got[i] = append(got[i], seen{at, r.e.Now()})
			})
		})
		if err := r.e.Run(lzUntil); err != nil {
			t.Fatal(err)
		}
		if !eager && r.accepted != 1 {
			t.Fatalf("lazy rig accepted %d trains, want 1", r.accepted)
		}
		states[i] = r.state()
	}
	if want := []seen{{edges[4] + d, edges[4] + d}}; !reflect.DeepEqual(got[0], want) {
		t.Errorf("Arduino X MIN after the kill: lazy rig saw %v, want %v", got[0], want)
	}
	if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(states[0], states[1]) {
		t.Errorf("lazy and eager runs differ:\nlazy  %+v %+v\neager %+v %+v", got[0], states[0], got[1], states[1])
	}
}

// The tests below pin the replay kernel: the edges of one pulse reach
// the lines, the tap detectors and trackers, the driver and any other
// sink as they would eagerly, whichever edge an advance point cuts the
// pulse after.

// edgeLog is a plain signal.Sink — no Quieter, so quiet by contract —
// that records every edge it is handed.
type edgeLog []loggedEdge

type loggedEdge struct {
	at    sim.Time
	level signal.Level
}

func (l *edgeLog) Edge(at sim.Time, level signal.Level) { *l = append(*l, loggedEdge{at, level}) }

// kernelDelays are propagation delays below the pulse width (the RAMPS
// rise lands before the Arduino fall), equal to it (the two land
// together), and above it.
var kernelDelays = []sim.Time{DefaultConfig().PropagationDelay, lzWidth, 5 * sim.Microsecond}

func TestLazyKernelCutsEveryEdge(t *testing.T) {
	for _, d := range kernelDelays {
		stops, seq, _ := kernelCuts(t, d)
		for k := range seq[0] {
			if !reflect.DeepEqual(seq[0][k], seq[1][k]) {
				t.Fatalf("delay %v: at %v lazy and eager rigs differ:\nlazy  %+v\neager %+v", d, stops[k], seq[0][k], seq[1][k])
			}
		}
	}
}

func TestLazyKernelFeedsPlainSink(t *testing.T) {
	for _, d := range kernelDelays {
		_, _, logs := kernelCuts(t, d)
		// The pulse that starts the export, and the move's ten.
		if len(logs[1]) != 4*11 {
			t.Fatalf("delay %v: eager sink saw %d edges, want 44", d, len(logs[1]))
		}
		if !slices.Equal(logs[0], logs[1]) {
			t.Errorf("delay %v: plain sink on both X STEP lines saw\nlazy  %v\neager %v", d, logs[0], logs[1])
		}
	}
}

// kernelCuts runs a dual-tap rig with propagation delay d lazily and
// eagerly: after the first step, X steps ten times with E alongside,
// and an edgeLog sits on both X STEP lines. The runs stop just before,
// at and just after every edge of every X pulse, so some advance point
// cuts each pulse after each of its edges. It returns the stops, both
// rigs' state at each, and both logs, lazy first.
func kernelCuts(t *testing.T, d sim.Time) (stops []sim.Time, seq [2][]lazyState, logs [2]edgeLog) {
	t.Helper()
	ms := sim.Millisecond
	s0 := lzFirstStep
	xs, es := pulses(s0+ms, 10), pulses(s0+ms+35*sim.Microsecond, 5)
	for _, r := range xs {
		for _, e := range []sim.Time{r, r + d, r + lzWidth, r + lzWidth + d} {
			stops = append(stops, e-1, e, e+1)
		}
	}
	slices.Sort(stops)
	stops = slices.Compact(stops)
	for i, eager := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Tap = TapDual
		cfg.PropagationDelay = d
		r := newUnhomedRig(t, cfg, eager, printer.DefaultConfig())
		r.home(signal.AxisX, signal.AxisY, signal.AxisZ)
		r.ard.Step(signal.AxisX).Attach(&logs[i])
		r.ramps.Step(signal.AxisX).Attach(&logs[i])
		startExport(r)
		r.move(s0+500*sim.Microsecond, s0+3*ms, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: xs, signal.AxisE: es})
		for _, until := range stops {
			if err := r.e.Run(until); err != nil {
				t.Fatal(err)
			}
			seq[i] = append(seq[i], r.state())
		}
		if !eager && r.accepted != 2 {
			t.Fatalf("delay %v: lazy rig accepted %d trains, want 2", d, r.accepted)
		}
	}
	return stops, seq, logs
}
