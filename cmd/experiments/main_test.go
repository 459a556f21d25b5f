package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresSelection(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Error("empty selection accepted")
	}
	if err := run([]string{"-bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulated prints")
	}
	// The overhead experiment is the fastest full-pipeline one.
	var stdout bytes.Buffer
	if err := run([]string{"-overhead"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "==== Overhead") {
		t.Errorf("stdout lacks the overhead report:\n%s", stdout.String())
	}
}

// reportDoc is the shape of the -json document.
type reportDoc struct {
	Seed    uint64                     `json:"seed"`
	Reports map[string]json.RawMessage `json:"reports"`
}

func checkOverheadDoc(t *testing.T, data []byte) {
	t.Helper()
	var doc reportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Seed != 1 {
		t.Errorf("seed = %d, want 1", doc.Seed)
	}
	if _, ok := doc.Reports["overhead"]; !ok || len(doc.Reports) != 1 {
		t.Errorf("reports keys = %v, want [overhead]", doc.Reports)
	}
}

func TestRunWritesJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulated prints")
	}
	path := filepath.Join(t.TempDir(), "reports.json")
	if err := run([]string{"-overhead", "-json", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkOverheadDoc(t, data)
}

// TestRunJSONToStdout: with -json - stdout carries the JSON document
// alone, and the Format() text moves to stderr.
func TestRunJSONToStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulated prints")
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-overhead", "-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	checkOverheadDoc(t, stdout.Bytes())
	if !strings.Contains(stderr.String(), "==== Overhead") {
		t.Errorf("stderr lacks the overhead text:\n%s", stderr.String())
	}
}
