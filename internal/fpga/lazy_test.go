package fpga

import (
	"reflect"
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
	lzExport = sim.Millisecond     // export period of the rig
	lzWidth  = 2 * sim.Microsecond // STEP pulse width
)

// lazyRig is a homed board with a plant behind it and a minimal stand-in
// for the firmware: it plans moves of explicit rises and hands their
// trains to the board, or emits them eagerly as the firmware does.
type lazyRig struct {
	t      *testing.T
	e      *sim.Engine
	ard    *signal.Bus
	board  *Board
	plant  *printer.Plant
	killed bool
	// accepted counts trains the board took lazily.
	accepted int
}

func newLazyRig(t *testing.T, tap TapSide, eager bool) *lazyRig {
	t.Helper()
	e := sim.NewEngine()
	ard, ramps := signal.NewBus(e), signal.NewBus(e)
	cfg := DefaultConfig()
	cfg.Tap = tap
	cfg.ExportPeriod = lzExport
	b, err := NewBoard(e, ard, ramps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := printer.NewPlant(e, ramps, printer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eager {
		for _, a := range signal.Axes {
			ard.Step(a).Watch(func(sim.Time, signal.Level) {})
		}
	}
	at := pressSequence(e, ramps.MinEndstop(signal.AxisX), 10*sim.Millisecond)
	at = pressSequence(e, ramps.MinEndstop(signal.AxisY), at)
	pressSequence(e, ramps.MinEndstop(signal.AxisZ), at)
	return &lazyRig{t: t, e: e, ard: ard, board: b, plant: p}
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
// axis, ending at until, and offers the board all of its trains. kill names the ticker that may
// halt the machine.
func (r *lazyRig) move(at, until sim.Time, kill signal.Tick, rises map[signal.Axis][]sim.Time) {
	r.e.Schedule(at, func() {
		now := r.e.Now()
		r.board.Advance(now, now)
		for _, a := range signal.Axes {
			if len(rises[a]) > 0 {
				r.ard.Dir(a).Set(signal.Low)
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
		r.e.Ticker(period, func(now sim.Time) {
			if ticks++; ticks != n {
				return
			}
			r.board.Halt(now, now-period)
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
}

func (r *lazyRig) state() lazyState {
	var s lazyState
	for _, side := range []TapSide{TapArduino, TapRAMPS} {
		if rec := r.board.RecordingAt(side); rec != nil {
			s.Recordings = append(s.Recordings, rec)
			s.Fingerprints = append(s.Fingerprints, *r.board.FingerprintAt(side))
			tk := r.board.TrackerAt(side)
			s.Counts = append(s.Counts, [4]int64{tk.Count(signal.AxisX), tk.Count(signal.AxisY), tk.Count(signal.AxisZ), tk.Count(signal.AxisE)})
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
	var states [2]lazyState
	var lazy *lazyRig
	for i, eager := range []bool{false, true} {
		r := newLazyRig(t, tap, eager)
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
	s0 := 400*sim.Millisecond + 10*sim.Microsecond
	r.move(400*sim.Millisecond, 401*sim.Millisecond, signal.Tick{}, map[signal.Axis][]sim.Time{signal.AxisX: {s0}})
	return s0
}

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
	txs := r.board.Recording().Transactions
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
	if txs := r.board.Recording().Transactions; len(txs) < 2 || txs[1].X != 2 {
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
	r := runBoth(t, TapArduino, 500*ms, func(r *lazyRig) {
		s0 := startExport(r)
		// Pulse 1 rises on tick 2, scheduled exactly one export period
		// earlier — at the tick's own scheduling instant.
		r.move(s0+500*us, s0+3*ms, signal.Tick{}, map[signal.Axis][]sim.Time{
			signal.AxisX: {s0 + 1000*us, s0 + 2000*us},
		})
	})
	if r.accepted != 0 {
		t.Errorf("a train tied with a tick was taken lazily")
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
