package firmware

import (
	"math"
	"testing"

	"offramps/internal/flaw3d"
	"offramps/internal/gcode"
	"offramps/internal/sim"
	"offramps/internal/slicer"
)

// testPart slices the standard experiment workload (the root package's
// TestPart: a 20×20×1.6 mm box) and its Table II case 5 tampered copy.
func testPart(tb testing.TB) (part, tampered gcode.Program) {
	tb.Helper()
	box, err := slicer.NewBox(20, 20, 1.6)
	if err != nil {
		tb.Fatal(err)
	}
	part, err = slicer.Slice(box, slicer.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	tampered, err = flaw3d.TableII()[4].Apply(part)
	if err != nil {
		tb.Fatal(err)
	}
	return part, tampered
}

// riseTableStats is what checkRiseTables counts over one program.
type riseTableStats struct {
	trains, tabulated int // step trains, and those with a table
	rises, covered    int // their pulses, and those read from a table
	entries           int // table entries held, each shared table once
}

// checkRiseTables checks every step train of a compiled program against
// the rules of Compiled.riseTables: a shape that two or more trains
// share has one table, shared by all of them, unless its moves last
// 4 s or more (near the 2^32 ns cap); a shape used once has none; and a
// train with a table rises at every pulse where the closed form puts it.
// A train without one is checked at its first and last pulse only, as
// a fuzzed move may have far too many pulses to walk.
func checkRiseTables(tb testing.TB, c *Compiled, prog gcode.Program) riseTableStats {
	tb.Helper()
	uses := make(map[trainShape]int)
	for _, e := range c.entries {
		for _, ax := range e.pm.axes {
			if ax.steps > 0 {
				uses[trainShape{e.pm.prof, ax.steps}]++
			}
		}
	}
	var st riseTableStats
	shared := make(map[trainShape]*uint32)
	const base = 3*sim.Second + 7
	for i, e := range c.entries {
		for j, ax := range e.pm.axes {
			off := e.rises[j]
			if ax.steps == 0 {
				if off != nil {
					tb.Fatalf("command %d %q: axis %d has no pulses but a table", i+1, prog[i].String(), j)
				}
				continue
			}
			s := trainShape{e.pm.prof, ax.steps}
			switch {
			case off == nil && uses[s] >= 2 && s.prof.total() < 4:
				tb.Fatalf("command %d %q: axis %d: shape of %d trains, %g s, has no table", i+1, prog[i].String(), j, uses[s], s.prof.total())
			case off != nil && uses[s] < 2:
				tb.Fatalf("command %d %q: axis %d: shape used once has a table", i+1, prog[i].String(), j)
			case off != nil && len(off) != s.n:
				tb.Fatalf("command %d %q: axis %d: %d-entry table for %d pulses", i+1, prog[i].String(), j, len(off), s.n)
			}
			st.trains++
			st.rises += s.n
			table := stepTrain{prof: s.prof, off: off, base: base, n: s.n}
			closed := stepTrain{prof: s.prof, base: base, n: s.n}
			if off == nil {
				for _, k := range []int{0, s.n - 1} {
					if got, want := table.RiseAt(k), base+s.prof.riseOffset(k, s.n); got != want {
						tb.Fatalf("command %d %q: axis %d pulse %d rises at %v, closed form %v", i+1, prog[i].String(), j, k, got, want)
					}
				}
				continue
			}
			st.tabulated++
			st.covered += s.n
			if first, ok := shared[s]; !ok {
				shared[s] = &off[0]
				st.entries += len(off)
			} else if first != &off[0] {
				tb.Fatalf("command %d %q: axis %d: trains of one shape hold different tables", i+1, prog[i].String(), j)
			}
			for k := range s.n {
				if got, want := table.RiseAt(k), closed.RiseAt(k); got != want {
					tb.Fatalf("command %d %q: axis %d pulse %d: table %v, closed form %v", i+1, prog[i].String(), j, k, got, want)
				}
			}
		}
	}
	return st
}

// TestRiseOffsetTable checks the rise-offset tables of the test part and
// its Table II case 5 copy at every pulse, then the edge cases on a
// small program: two trains of one shape share a table, a shape used
// once has none, and a repeated shape of 100 s (past the 2^32 ns cap)
// has none either, yet every train still rises where the closed form
// puts it.
func TestRiseOffsetTable(t *testing.T) {
	part, tampered := testPart(t)
	cfg := DefaultConfig()
	for _, tc := range []struct {
		name string
		prog gcode.Program
	}{{"testpart", part}, {"tableii-5", tampered}} {
		c, err := Compile(tc.prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := checkRiseTables(t, c, tc.prog)
		if st.tabulated == 0 {
			t.Fatalf("%s: no train has a table", tc.name)
		}
		t.Logf("%s: %d of %d trains tabulated, %d of %d rises (%.0f%%) from %d table entries (%d KB)",
			tc.name, st.tabulated, st.trains, st.covered, st.rises,
			100*float64(st.covered)/float64(st.rises), st.entries, st.entries*4/1000)
	}

	prog, err := gcode.ParseString("G1 X10 F3000\nG1 X0\nG1 Y5\nG1 X100 F60\nG1 X0\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkRiseTables(t, c, prog)
	x, y := 0, 1 // signal.Axes order
	if a, b := c.entries[0].rises[x], c.entries[1].rises[x]; a == nil || &a[0] != &b[0] {
		t.Error("the two 10 mm X moves do not share one table")
	}
	if c.entries[2].rises[y] != nil {
		t.Error("the one 5 mm Y move has a table")
	}
	if c.entries[3].rises[x] != nil || c.entries[4].rises[x] != nil {
		t.Error("the two 100 s X moves have a table past the 2^32 ns cap")
	}
}

// FuzzCompile feeds every program the parser accepts to Compile. It must
// never panic: it either rejects the program or returns one entry per
// command, each with non-negative step counts and a duration the
// simulation clock can hold, every dwell it accepts fits the clock too,
// and its rise-offset tables keep the rules checkRiseTables checks. The
// seeds are the first layer of the test part and of its Flaw3D tampered
// copy, two moves the simulator cannot represent (a target past 2^53
// microsteps, and a move too long for the clock), a dwell too long for
// the clock, a repeated move that shares a table and a repeated move too
// long for one. A whole part is no seed: each run of one compiles and
// checks ≈10 KB of G-code and its hundreds of thousands of rises, and
// the fuzzer minimizes every new input it derives from one by running
// it again thousands of times, so it would run only a few dozen inputs
// a minute.
func FuzzCompile(f *testing.F) {
	part, tampered := testPart(f)
	f.Add(firstLayer(part).String())
	f.Add(firstLayer(tampered).String())
	f.Add("G1 X99999999999999999999\nG1 X5\n")
	f.Add("G1 X1000000000 F0.0000001\n")
	f.Add("G4 P10000000000000\nG1 X5\n")
	f.Add("G1 X10 F3000\nG1 X0\nG1 X10\n")
	f.Add("G1 X100 F60\nG1 X0\n")
	cfg := DefaultConfig()
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := gcode.ParseString(src)
		if err != nil {
			return
		}
		c, err := Compile(prog, cfg)
		if err != nil {
			return
		}
		if len(c.entries) != len(prog) {
			t.Fatalf("%d entries for %d commands", len(c.entries), len(prog))
		}
		for i, e := range c.entries {
			for j, ax := range e.pm.axes {
				if ax.steps < 0 {
					t.Fatalf("command %d %q: axis %d has %d steps", i+1, prog[i].String(), j, ax.steps)
				}
			}
			if d := e.pm.prof.total(); !(d >= 0 && d < maxMoveSeconds) || e.pm.duration() < 0 {
				t.Fatalf("command %d %q: duration %g s", i+1, prog[i].String(), d)
			}
			if d := dwellSeconds(prog[i]); prog[i].Code == "G4" && (math.IsInf(d, 0) || !(d <= maxMoveSeconds)) {
				t.Fatalf("command %d %q: dwell %g s accepted", i+1, prog[i].String(), d)
			}
		}
		checkRiseTables(t, c, prog)
	})
}

// firstLayer returns the commands of prog before its second layer: up
// to the first move that changes Z after one has set it.
func firstLayer(prog gcode.Program) gcode.Program {
	z, set := 0.0, false
	for i, c := range prog {
		v, ok := c.Float('Z')
		if !ok || !(c.Is("G0") || c.Is("G1")) {
			continue
		}
		if set && v != z {
			return prog[:i]
		}
		z, set = v, true
	}
	return prog
}

// BenchmarkCompile measures planning one program: the test part and its
// Table II case 5 copy (Flaw3D relocation, which reroutes every fifth
// printing move through a dump point: three moves in place of one).
func BenchmarkCompile(b *testing.B) {
	part, tampered := testPart(b)
	cfg := DefaultConfig()
	for _, bc := range []struct {
		name string
		prog gcode.Program
	}{{"testpart", part}, {"tableii-5", tampered}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Compile(bc.prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
