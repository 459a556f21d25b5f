package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"offramps/internal/flaw3d"
	"offramps/internal/fpga"
	"offramps/internal/gcode"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// The lazy step path (internal/fpga/lazy.go) must be invisible: every
// test here runs the same work on the default rig, where clean paths
// carry step trains lazily, and on the eager oracle, where a no-op
// Watch on every Arduino STEP line keeps each pulse on the event queue.

// withEagerSteps runs fn with every testbed built on the eager oracle.
func withEagerSteps(fn func()) {
	eagerSteps = true
	defer func() { eagerSteps = false }()
	fn()
}

// sameSimulation compares what the report JSON leaves out: the raw
// captures, the fingerprints and the deposited part.
func sameSimulation(a, b *Result) bool {
	return reflect.DeepEqual(a.Recording, b.Recording) &&
		reflect.DeepEqual(a.ArduinoRecording, b.ArduinoRecording) &&
		reflect.DeepEqual(a.RAMPSRecording, b.RAMPSRecording) &&
		reflect.DeepEqual(a.Fingerprint, b.Fingerprint) &&
		reflect.DeepEqual(a.ArduinoFingerprint, b.ArduinoFingerprint) &&
		reflect.DeepEqual(a.RAMPSFingerprint, b.RAMPSFingerprint) &&
		reflect.DeepEqual(a.Part.Deposits(), b.Part.Deposits()) &&
		reflect.DeepEqual(a.StepsLost, b.StepsLost)
}

// lazyMoves homes, leaves the endstops with an eager move, then runs
// the moves under test. X has 80 steps/mm and E 96, so X3 E0.833333 is
// 240 X steps against 80 E steps (3:1); the diagonal has equal X and Y
// counts; X0.5 stops short of the switch, X0 crosses it mid-train.
const lazyMoves = `G28
G1 X10 Y10 Z1 F3000
G92 E0
G1 X13 E0.833333 F600
G1 X23 Y20 E1.5 F1200
G1 X0.5 F3000
G1 X0 F3000
G1 X5 Y5 F3000
`

func TestLazyStepsMatchEagerMoves(t *testing.T) {
	prog, err := gcode.ParseString(lazyMoves)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		res    *Result
		json   []byte
		events uint64
		rises  map[signal.Axis][]sim.Time
	}
	runOnce := func(eager bool) run {
		tb, err := NewTestbed(WithSeed(3), WithTapSide(fpga.TapDual))
		if err != nil {
			t.Fatal(err)
		}
		r := run{rises: map[signal.Axis][]sim.Time{}}
		if eager {
			for _, a := range signal.Axes {
				a := a
				tb.Arduino.Step(a).Watch(func(at sim.Time, l signal.Level) {
					if l == signal.High {
						r.rises[a] = append(r.rises[a], at)
					}
				})
			}
		}
		if r.res, err = tb.Run(context.Background(), prog); err != nil {
			t.Fatal(err)
		}
		if r.json, err = json.Marshal(r.res); err != nil {
			t.Fatal(err)
		}
		r.events = tb.Engine.Executed()
		return r
	}
	lazy, eager := runOnce(false), runOnce(true)
	if !bytes.Equal(lazy.json, eager.json) || !sameSimulation(lazy.res, eager.res) {
		t.Errorf("lazy and eager runs differ:\nlazy  %s\neager %s", lazy.json, eager.json)
	}
	// Four events per pulse leave the queue; the 3:1 move and the
	// diagonal alone are 1,920 pulses.
	if lazy.events+4*1920 > eager.events {
		t.Errorf("lazy run executed %d events against %d eager: trains stayed on the queue", lazy.events, eager.events)
	}
	// The 3:1 move must put X and E rises on the same nanosecond, and
	// the diagonal X and Y rises, or the tie rule went untested.
	if n := coincident(eager.rises[signal.AxisX], eager.rises[signal.AxisE]); n == 0 {
		t.Error("no X rise coincides with an E rise")
	}
	if n := coincident(eager.rises[signal.AxisX], eager.rises[signal.AxisY]); n < 800 {
		t.Errorf("%d X rises coincide with Y rises, want the whole 800-step diagonal", n)
	}
}

// mixedMoves puts X beside E in one move, with X0 crossing the X
// switch mid-train. E steps deposit at the current XYZ, so X and E run
// lazily together, the crossing replayed; and a probe on the X STEP
// line alone keeps X eager in every move, so the board must run the
// whole move eagerly, E included.
const mixedMoves = `G28
G1 X10 Y10 Z1 F3000
G92 E0
G1 X0 E1 F600
G1 X13 Y4 E1.8 F600
G1 Y12 E2.4 F600
`

func TestLazyStepsMixedMoves(t *testing.T) {
	prog, err := gcode.ParseString(mixedMoves)
	if err != nil {
		t.Fatal(err)
	}
	// run prints prog with a no-op Watch on the given Arduino STEP lines.
	run := func(watched ...signal.Axis) (*Result, []byte) {
		tb, err := NewTestbed(WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range watched {
			tb.Arduino.Step(a).Watch(func(sim.Time, signal.Level) {})
		}
		res, err := tb.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, out
	}
	eager, eagerJSON := run(signal.Axes...)
	if len(eager.Part.Deposits()) == 0 {
		t.Fatal("the moves deposited nothing")
	}
	for _, tc := range []struct {
		name    string
		watched []signal.Axis
	}{
		{"endstop crossing", nil},
		{"probe on X STEP", []signal.Axis{signal.AxisX}},
	} {
		res, out := run(tc.watched...)
		if !bytes.Equal(out, eagerJSON) || !sameSimulation(res, eager) {
			t.Errorf("%s: run differs from the eager oracle", tc.name)
		}
	}
}

// coincident counts instants present in both sorted lists.
func coincident(a, b []sim.Time) int {
	n, j := 0, 0
	for _, at := range a {
		for j < len(b) && b[j] < at {
			j++
		}
		if j < len(b) && b[j] == at {
			n++
		}
	}
	return n
}

// TestLazyStepsReadsBetweenRuns reads plant, driver, tracker and line
// state between Engine.Run chunks: a lazy rig must show what the eager
// one does at every chunk boundary.
func TestLazyStepsReadsBetweenRuns(t *testing.T) {
	prog, err := gcode.ParseString(lazyMoves)
	if err != nil {
		t.Fatal(err)
	}
	type reading struct {
		Pos         [4]float64
		Net         [4]int64
		LostLo      [4]uint64
		Seen        [4]uint64
		Count       [4]int64
		Edges       [4]uint64
		Deposits    int
		Windows     int
		LevelsHigh  int
		InvalidAxis float64
	}
	readAll := func(eager bool) []reading {
		var out []reading
		run := func() {
			tb, err := NewTestbed(WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			tb.Firmware.Load(prog)
			if err := tb.Firmware.Start(); err != nil {
				t.Fatal(err)
			}
			for !tb.Firmware.Done() {
				if err := tb.Engine.Run(tb.Engine.Now() + 3*sim.Millisecond + 7*sim.Microsecond); err != nil {
					t.Fatal(err)
				}
				var r reading
				for i, a := range signal.Axes {
					r.Pos[i] = tb.Plant.Position(a)
					r.Net[i] = tb.Plant.NetSteps(a)
					r.LostLo[i], _ = tb.Plant.LostSteps(a)
					r.Seen[i] = tb.Plant.Driver(a).StepsSeen()
					r.Count[i] = tb.Board.Tracker().Count(a)
					r.Edges[i] = tb.RAMPS.Step(a).Edges()
					if tb.Arduino.Step(a).Level() == signal.High {
						r.LevelsHigh++
					}
				}
				r.Deposits = len(tb.Plant.Part().Deposits())
				r.Windows = tb.Board.Windows()
				r.InvalidAxis = tb.Plant.Position(signal.Axis(0))
				out = append(out, r)
			}
		}
		if eager {
			withEagerSteps(run)
		} else {
			run()
		}
		return out
	}
	lazy, eager := readAll(false), readAll(true)
	if !reflect.DeepEqual(lazy, eager) {
		t.Errorf("readings between Run chunks differ (lazy %d chunks, eager %d)", len(lazy), len(eager))
	}
}

// TestRelocationPrintStaysLazy pins the lazy path through endstop
// crossings: every dump trip of a Flaw3D relocation print presses and
// releases the Y MIN switch, and those moves must still leave the
// queue. Table II case 5 (a dump every 5 moves) must execute fewer
// than 1.2× the golden print's events; run eagerly it executes ≈33×.
func TestRelocationPrintStaysLazy(t *testing.T) {
	golden, err := TestPart()
	if err != nil {
		t.Fatal(err)
	}
	reloc, err := flaw3d.TableII()[4].Apply(golden)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prog gcode.Program) (events, yPresses uint64) {
		tb, err := NewTestbed(WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := tb.Run(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal(res.HaltError)
		}
		return tb.Engine.Executed(), tb.RAMPS.MinEndstop(signal.AxisY).Edges() / 2
	}
	goldenEvents, goldenPresses := run(golden)
	relocEvents, relocPresses := run(reloc)
	// Each dump replaces one move with three.
	dumps := uint64(len(reloc)-len(golden)) / 2
	if dumps == 0 || relocPresses != goldenPresses+dumps {
		t.Fatalf("Y switch pressed %d times in the relocation print against %d in the golden, want one more per dump (%d): the dump trips no longer cross it", relocPresses, goldenPresses, dumps)
	}
	if float64(relocEvents) >= 1.2*float64(goldenEvents) {
		t.Errorf("relocation print executed %d events against the golden's %d (%.1f×), want under 1.2×",
			relocEvents, goldenEvents, float64(relocEvents)/float64(goldenEvents))
	}
}
