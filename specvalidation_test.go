package offramps

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offramps/internal/capture"
)

// TestCommittedSpecsCompile pushes every committed spec file — suite
// specs and grid_*.json sweeps alike — through the full spec compiler,
// so example drift (a renamed trojan, a retired detector param, a stale
// field) fails in CI instead of at a reader's terminal. The CI
// spec-validation job runs exactly this test.
func TestCommittedSpecsCompile(t *testing.T) {
	dir := filepath.Join("examples", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		found++
		path := filepath.Join(dir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			suite, err := LoadSuiteOrGrid(path, false)
			if err != nil {
				t.Fatal(err)
			}
			base := suite.BaseSeed
			if base == 0 {
				base = 1
			}
			ctx := SpecContext{
				BaseSeed: base,
				Dir:      dir,
				Goldens:  func(string) *capture.Recording { return nil },
			}
			if _, err := CompileSpecs(ctx, suite.Scenarios); err != nil {
				t.Fatalf("spec does not compile: %v", err)
			}
		})
	}
	if found == 0 {
		t.Fatal("no committed spec files found")
	}
}
