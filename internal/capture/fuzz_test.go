package capture

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV: ReadCSV never panics, and a recording it accepts
// survives WriteCSV and ReadCSV unchanged.
func FuzzReadCSV(f *testing.F) {
	f.Add("Index, X, Y, Z, E\n5113, 6060, 8266, 960, 52843\n5114, 6304, 8095, 960, 52856\n")
	f.Add("Index, X, Y, Z, E\n4294967295, 2147483647, -2147483648, 0, 0\n")
	f.Add("Index, X, Y, Z, E\n0, 4294967297, 0, 0, -4294967296\n")
	f.Fuzz(func(t *testing.T, src string) {
		rec, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("accepted recording does not re-read from its CSV: %v\n%q", err, buf.String())
		}
		if !slices.Equal(rec.Transactions, back.Transactions) {
			t.Fatalf("round trip changed the transactions:\nread  %+v\nagain %+v", rec.Transactions, back.Transactions)
		}
	})
}
