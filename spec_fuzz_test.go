package offramps

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSuiteSpec feeds arbitrary bytes to the suite-spec parser.
// The contract under fuzzing: ParseSuiteSpec and Validate never panic,
// and a spec they accept survives json.Marshal → ParseSuiteSpec
// unchanged, so a spec the farm coordinator re-serializes for its
// workers is the spec it loaded. The seeds are the committed suite
// files (the grids have their own target, FuzzParseGridSpec).
func FuzzParseSuiteSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("examples", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "grid_") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSuiteSpec(data, "")
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSuiteSpec(out, "")
		if err != nil {
			t.Fatalf("marshalled spec does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec:\nparsed: %+v\nagain:  %+v", s, back)
		}
	})
}
