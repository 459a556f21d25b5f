package capture

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	tx := Transaction{Index: 42, X: 6060, Y: -8266, Z: 960, E: 52843}
	back := FromFrame(42, tx.Frame())
	if back != tx {
		t.Errorf("round trip: %+v != %+v", back, tx)
	}
}

// Property: Frame/FromFrame round-trips any counter values, including
// negatives.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(x, y, z, e int32, idx uint32) bool {
		tx := Transaction{Index: idx, X: x, Y: y, Z: z, E: e}
		return FromFrame(idx, tx.Frame()) == tx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColumn(t *testing.T) {
	tx := Transaction{X: 1, Y: 2, Z: 3, E: 4}
	for i, col := range Columns {
		v, err := tx.Column(col)
		if err != nil || v != int32(i+1) {
			t.Errorf("Column(%s) = %d, %v", col, v, err)
		}
	}
	if _, err := tx.Column("W"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestAppendContiguity(t *testing.T) {
	var r Recording
	if err := r.Append(Transaction{Index: 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 3}); err == nil {
		t.Error("gap in indices accepted")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAppendArbitraryStart(t *testing.T) {
	// Excerpt files (like the paper's Figure 4 listing) start mid-print.
	var r Recording
	if err := r.Append(Transaction{Index: 5113}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Transaction{Index: 5114}); err != nil {
		t.Fatal(err)
	}
}

func TestFinal(t *testing.T) {
	var r Recording
	if _, ok := r.Final(); ok {
		t.Error("empty recording has a final transaction")
	}
	r.Append(Transaction{Index: 0, X: 5})
	r.Append(Transaction{Index: 1, X: 9})
	f, ok := r.Final()
	if !ok || f.X != 9 {
		t.Errorf("Final = %+v, %v", f, ok)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := &Recording{}
	r.Append(Transaction{Index: 0, X: 10, Y: -20, Z: 30, E: 40})
	r.Append(Transaction{Index: 1, X: 11, Y: -21, Z: 31, E: 41})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "Index, X, Y, Z, E\n") {
		t.Errorf("header: %q", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Transactions[1] != r.Transactions[1] {
		t.Errorf("round trip: %+v", back.Transactions)
	}
}

func TestCSVPaperFigure4Excerpt(t *testing.T) {
	// The exact text from Figure 4a must parse.
	src := `Index, X, Y, Z, E
5113, 6060, 8266, 960, 52843
5114, 6304, 8095, 960, 52856
5115, 7218, 8285, 960, 52856
5116, 8166, 8483, 960, 52856
5117, 8671, 8620, 960, 52859
5118, 8384, 8733, 960, 52875
`
	r, err := ReadCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Transactions[0].Index != 5113 || r.Transactions[5].E != 52875 {
		t.Errorf("parsed %+v", r.Transactions)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"bogus header\n1, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n1, 2, 3\n",
		"Index, X, Y, Z, E\na, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n-1, 2, 3, 4, 5\n",
		"Index, X, Y, Z, E\n0, 1, 1, 1, 1\n5, 1, 1, 1, 1\n",     // gap
		"Index, X, Y, Z, E\n0, 4294967297, 0, 0, -4294967296\n", // past int32
		"Index, X, Y, Z, E\n4294967296, 0, 0, 0, 0\n",           // past uint32
		"\n0, 1, 2, 3, 4\n",                                     // no header after a blank line
	}
	for _, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", src)
		}
	}
}

func TestCSVBlankLinesTolerated(t *testing.T) {
	for src, want := range map[string]int{
		"Index, X, Y, Z, E\n0, 1, 2, 3, 4\n\n1, 2, 3, 4, 5\n": 2,
		"\nIndex, X, Y, Z, E\n0, 1, 2, 3, 4\n":                1, // header after a blank line
	} {
		r, err := ReadCSV(strings.NewReader(src))
		if err != nil {
			t.Errorf("blank-line parse of %q: %v", src, err)
		} else if r.Len() != want {
			t.Errorf("blank-line parse of %q: len %d, want %d", src, r.Len(), want)
		}
	}
}
