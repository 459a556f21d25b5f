package offramps

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"offramps/internal/sched"
)

// FuzzReadResumeIndex hammers the resume reader with arbitrary streams.
// The contract under fuzzing: never panic, and on a nil error return an
// index whose rows are valid first-wins JSON — re-reading the same
// stream must reproduce it exactly, and replaying a clean stream after
// itself must change nothing but the duplicate count.
func FuzzReadResumeIndex(f *testing.F) {
	scen := `{"suite":"s","name":"a","seed":11,"result":{"steps":3}}`
	scen2 := `{"suite":"s","name":"g","seed":1,"result":{"steps":3}}`
	errRow := `{"suite":"s","name":"b","seed":12,"error":"sim exploded"}`
	cmp := `{"suite":"s","compare":{"golden":"g","goldenTap":"","suspect":"a","suspectTap":"","match":true}}`
	f.Add(scen + "\n" + cmp + "\n" + scen2 + "\n")
	f.Add(scen + "\n" + scen + "\n" + cmp + "\n" + cmp + "\n") // duplicates
	f.Add(scen + "\n" + errRow + "\n")
	f.Add(scen + "\n" + scen2[:20]) // torn tail
	f.Add("garbage\n" + scen + "\n")
	f.Add(scen + "\n\n\n" + cmp + "\n") // interleaved blank lines
	f.Add(`{"suite":"other","name":"x","seed":5}` + "\n" + scen + "\n")
	f.Add("")
	f.Add("\x00\xff\xfe")
	f.Add(`{"name":""}` + "\n")
	f.Add(`{"compare":{}}` + "\n")

	f.Fuzz(func(t *testing.T, stream string) {
		ix, err := ReadResumeIndex(strings.NewReader(stream), "")
		if err != nil {
			return // rejecting a corrupt stream is a valid outcome
		}
		if ix.Dups < 0 {
			t.Fatalf("Dups = %d", ix.Dups)
		}
		for name, raw := range ix.Scenarios {
			if name == "" {
				t.Fatal("index holds a scenario row with an empty name")
			}
			if !json.Valid(raw) {
				t.Fatalf("scenario %q row is not valid JSON: %s", name, raw)
			}
			if _, ok := ix.Seeds[name]; !ok {
				t.Fatalf("scenario %q has a row but no seed", name)
			}
		}
		for key, raw := range ix.Compares {
			if key == "" {
				t.Fatal("index holds a comparison row with an empty key")
			}
			if !json.Valid(raw) {
				t.Fatalf("comparison %q row is not valid JSON: %s", key, raw)
			}
		}

		// Determinism: the same bytes index identically.
		again, err := ReadResumeIndex(strings.NewReader(stream), "")
		if err != nil {
			t.Fatalf("second read errored: %v", err)
		}
		if again.Torn != ix.Torn || again.Dups != ix.Dups ||
			len(again.Scenarios) != len(ix.Scenarios) || len(again.Compares) != len(ix.Compares) {
			t.Fatalf("re-read diverged: %+v vs %+v", again, ix)
		}

		// First wins: replaying a clean (untorn) stream after itself may
		// only add duplicates, never change or grow the indexed rows.
		if !ix.Torn {
			replay, err := ReadResumeIndex(strings.NewReader(stream+"\n"+stream), "")
			if err != nil {
				t.Fatalf("replayed stream errored: %v", err)
			}
			if len(replay.Scenarios) != len(ix.Scenarios) || len(replay.Compares) != len(ix.Compares) {
				t.Fatalf("replay grew the index: %d/%d rows, want %d/%d",
					len(replay.Scenarios), len(replay.Compares), len(ix.Scenarios), len(ix.Compares))
			}
			for name, raw := range ix.Scenarios {
				if !bytes.Equal(replay.Scenarios[name], raw) {
					t.Fatalf("replay rewrote scenario %q — first-wins violated", name)
				}
			}
			for key, raw := range ix.Compares {
				if !bytes.Equal(replay.Compares[key], raw) {
					t.Fatalf("replay rewrote comparison %q — first-wins violated", key)
				}
			}
		}
	})
}

// FuzzRowVerdict feeds arbitrary row and comparison bytes to the raw-row
// verdict adapter. A farm coordinator applies it to /v1/complete bodies,
// so it must never panic, and input that is not JSON must read as
// Errored. The seeds are real Table II rows (a golden, the clean
// control, and a Flaw3D cell, each with its comparison).
func FuzzRowVerdict(f *testing.F) {
	suite, err := LoadSuiteOrGrid(filepath.Join("examples", "specs", "grid_tableii.json"), false)
	if err != nil {
		f.Fatal(err)
	}
	sub, err := suite.Subset("golden", "clean-control", "flaw3d-1")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := Campaign{}.RunSuite(context.Background(), sub)
	if err != nil {
		f.Fatal(err)
	}
	raw := func(emit func(*JSONLSink) error) []byte {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		sink.Label = suite.Name
		if err := emit(sink); err != nil {
			f.Fatal(err)
		}
		row, err := ParseStreamRow(buf.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		return row.Report
	}
	for _, r := range rep.Results {
		row := raw(func(s *JSONLSink) error { return s.Emit(r) })
		var cmp []byte
		for _, c := range rep.Comparisons {
			if c.Suspect == r.Name {
				cmp = raw(func(s *JSONLSink) error { return s.EmitCompare(c) })
			}
		}
		f.Add(row, cmp)
		f.Add(row[:len(row)/2], cmp)
		if len(cmp) > 0 {
			f.Add(row, cmp[:len(cmp)/2])
		}
	}
	f.Add([]byte(`{"Err":5}`), []byte(nil))
	f.Add([]byte(`{"Result":{"Detections":{}}}`), []byte(nil))
	f.Add([]byte(`{"Result":{}}`), []byte(`{"report":[]}`))
	f.Add([]byte(`null`), []byte(`null`))

	f.Fuzz(func(t *testing.T, row, cmp []byte) {
		v := RowVerdict(row, cmp)
		if v > sched.Errored {
			t.Fatalf("verdict %d is out of range", v)
		}
		if (!json.Valid(row) || len(cmp) > 0 && !json.Valid(cmp)) && v != sched.Errored {
			t.Fatalf("malformed input read as %v, want errored\nrow: %q\ncmp: %q", v, row, cmp)
		}
	})
}
