package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

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

// TestLazyStepsMatchEagerSpecs is the eager oracle for every committed
// spec: at seeds 1–10 the lazy and eager sweeps must write the same
// report bytes and produce the same captures, fingerprints and parts.
// Under -short or the race detector it keeps seeds 1 and 7.
func TestLazyStepsMatchEagerSpecs(t *testing.T) {
	paths, err := filepath.Glob("examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs: %v", err)
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() || raceDetector {
		seeds = []uint64{1, 7}
	}
	// One golden cache per rig serves the prints the specs share.
	lazyCache, eagerCache := NewGoldenCache(), NewGoldenCache()
	sweep := func(path string, seed uint64, cache *GoldenCache) ([]byte, *SuiteReport) {
		suite, err := LoadSuiteOrGrid(path, false)
		if err != nil {
			t.Fatal(err)
		}
		suite.BaseSeed = seed
		rep, err := Campaign{Cache: cache}.RunSuite(context.Background(), suite)
		if err != nil {
			t.Fatalf("%s seed %d: %v", path, seed, err)
		}
		var buf bytes.Buffer
		if err := EncodeReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rep
	}
	for _, path := range paths {
		for _, seed := range seeds {
			lazyBytes, lazy := sweep(path, seed, lazyCache)
			var eagerBytes []byte
			var eager *SuiteReport
			withEagerSteps(func() { eagerBytes, eager = sweep(path, seed, eagerCache) })
			if !bytes.Equal(lazyBytes, eagerBytes) {
				t.Errorf("%s seed %d: report bytes differ between lazy and eager runs", path, seed)
				continue
			}
			for i, lr := range lazy.Results {
				er := eager.Results[i]
				if (lr.Result == nil) != (er.Result == nil) {
					t.Errorf("%s seed %d %s: result presence differs", path, seed, lr.Name)
					continue
				}
				if lr.Result != nil && !sameSimulation(lr.Result, er.Result) {
					t.Errorf("%s seed %d %s: captures, fingerprints or part differ", path, seed, lr.Name)
				}
			}
		}
	}
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

// mixedMoves puts an axis that must run eagerly beside E in one move:
// X0 crosses the X switch mid-train, and a probe on the X STEP line
// alone keeps X eager in every move. E steps deposit at the current
// XYZ, so the board must run the whole move eagerly, E included.
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
