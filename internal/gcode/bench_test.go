package gcode_test

import (
	"testing"

	"offramps/internal/gcode"
	"offramps/internal/slicer"
)

// BenchmarkParse measures parsing the test part's G-code text (the root
// package's TestPart: a 20×20×1.6 mm box), the work a spec's
// "program.file" costs per load.
func BenchmarkParse(b *testing.B) {
	box, err := slicer.NewBox(20, 20, 1.6)
	if err != nil {
		b.Fatal(err)
	}
	part, err := slicer.Slice(box, slicer.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	src := part.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for range b.N {
		if _, err := gcode.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}
