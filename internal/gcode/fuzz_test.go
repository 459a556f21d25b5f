package gcode_test

import (
	"testing"

	"offramps/internal/flaw3d"
	"offramps/internal/gcode"
	"offramps/internal/slicer"
)

// FuzzParseGCode feeds arbitrary text to the parser. It must never
// panic, and a program it accepts must re-parse from its own String()
// to the same text: the canonical form is a fixed point. The seeds are
// a small sliced box, a Flaw3D-tampered copy of it, and the RepRap
// serial forms (line numbers, checksums, packed words).
func FuzzParseGCode(f *testing.F) {
	box, err := slicer.NewBox(10, 10, 0.6)
	if err != nil {
		f.Fatal(err)
	}
	part, err := slicer.Slice(box, slicer.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	tampered, err := flaw3d.TableII()[4].Apply(part)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(part.String())
	f.Add(tampered.String())
	f.Add("N10 G1X10Y5.5E-0.25F1800*71\nG28 X\n;LAYER:1\nm104 s200 ; heat\nT0\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := gcode.ParseString(src)
		if err != nil {
			return
		}
		text := prog.String()
		again, err := gcode.ParseString(text)
		if err != nil {
			t.Fatalf("accepted program does not re-parse from its String(): %v\n%q", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("String() is not a fixed point:\nfirst:  %q\nsecond: %q", text, got)
		}
	})
}
