package firmware

import (
	"testing"

	"offramps/internal/flaw3d"
	"offramps/internal/gcode"
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

// FuzzCompile feeds every program the parser accepts to Compile. It must
// never panic: it either rejects the program or returns one entry per
// command, each with non-negative step counts and a duration the
// simulation clock can hold. The seeds are the test part, a Flaw3D
// tampered copy, and two moves the simulator cannot represent (a target
// past 2^53 microsteps, and a move too long for the clock).
func FuzzCompile(f *testing.F) {
	part, tampered := testPart(f)
	f.Add(part.String())
	f.Add(tampered.String())
	f.Add("G1 X99999999999999999999\nG1 X5\n")
	f.Add("G1 X1000000000 F0.0000001\n")
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
		}
	})
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
