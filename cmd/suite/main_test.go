package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"offramps"
)

// repoRoot walks up from the test's working directory to the module root
// so the committed example specs resolve.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestTapsideExampleSpec executes the committed tap-placement spec file
// end to end — the acceptance scenario for the composable rig topology: a
// RAMPS-side tap detects a board-injected trojan that the paper's
// Arduino-side tap misses.
func TestTapsideExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "tapside.json")
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	csvPath := filepath.Join(t.TempDir(), "rows.csv")

	var out strings.Builder
	if err := run([]string{"-json", jsonPath, "-csv", csvPath, spec}, &out); err != nil {
		t.Fatal(err)
	}

	text := out.String()
	if !strings.Contains(text, "compare golden vs trojaned@arduino [golden-comparator]: no trojan suspected") {
		t.Errorf("arduino-side tap did not stay blind to the board's own trojan:\n%s", text)
	}
	if !strings.Contains(text, "compare golden vs trojaned@ramps [golden-comparator]: TROJAN LIKELY") {
		t.Errorf("ramps-side tap did not detect the board-injected trojan:\n%s", text)
	}

	// The JSON sink round-trips and carries both verdicts.
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suites []struct {
			Suite       string `json:"suite"`
			Comparisons []struct {
				SuspectTap string `json:"suspectTap"`
				Report     struct {
					TrojanLikely  bool
					NumMismatches int
				} `json:"report"`
			} `json:"comparisons"`
		} `json:"suites"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("JSON sink: %v", err)
	}
	if len(doc.Suites) != 1 || len(doc.Suites[0].Comparisons) != 2 {
		t.Fatalf("JSON sink shape: %+v", doc)
	}
	byTap := map[string]bool{}
	for _, c := range doc.Suites[0].Comparisons {
		byTap[c.SuspectTap] = c.Report.TrojanLikely
	}
	if byTap["arduino"] {
		t.Error("JSON: arduino tap flagged")
	}
	if !byTap["ramps"] {
		t.Error("JSON: ramps tap not flagged")
	}

	// The CSV sink has a header plus one row per scenario and comparison.
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(lines) != 1+2+2 {
		t.Errorf("CSV rows = %d, want 5:\n%s", len(lines), csvData)
	}
	if !strings.HasPrefix(lines[0], "kind,suite,name,seed") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestLiveMonitorExampleSpec executes the committed two-wave spec: the
// suspect's golden-monitor detector references the golden scenario's
// capture and aborts the tampered print mid-run.
func TestLiveMonitorExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "live_monitor.json")
	var out strings.Builder
	if err := run([]string{spec}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TROJAN LIKELY (aborted)") {
		t.Errorf("live monitor did not abort the tampered print:\n%s", out.String())
	}
}

// TestProgressivePlainSuite: -scenario-budget and -earlystop accept a
// plain suite. It has no cells, so no budget or early stop can skip a
// scenario, and the two-wave spec (the suspect's live monitor needs the
// golden's capture) writes the same report bytes as a plain run.
func TestProgressivePlainSuite(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "live_monitor.json")
	dir := t.TempDir()
	plain, prog := filepath.Join(dir, "plain.json"), filepath.Join(dir, "prog.json")
	var out strings.Builder
	if err := run([]string{"-json", plain, spec}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-scenario-budget", "1", "-earlystop", "1", "-json", prog, spec}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "progressive:") {
		t.Errorf("a plain suite dealt no cells but printed a summary:\n%s", out.String())
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the budgeted report of a plain suite differs from the plain run")
	}
}

// TestAttestationExampleSpec executes the committed self-attestation
// spec end to end — the acceptance scenario for tap-addressable
// detection: a dual-tap attestation detector flags a board-run T2 in a
// single print with no golden reference, while the same run's Arduino-
// side capture passes the paper's golden workflow.
func TestAttestationExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "attestation.json")
	var out strings.Builder
	if err := run([]string{spec}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(text, "\n")
	scenarioVerdict := func(name string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, name+" ") {
				return l
			}
		}
		t.Fatalf("scenario %q missing from output:\n%s", name, text)
		return ""
	}
	if l := scenarioVerdict("attested"); !strings.Contains(l, "TROJAN LIKELY") {
		t.Errorf("dual-tap attestation did not flag the board trojan: %q", l)
	}
	if l := scenarioVerdict("clean-attested"); strings.Contains(l, "TROJAN LIKELY") {
		t.Errorf("clean dual-tap attestation false-positived: %q", l)
	}
	if !strings.Contains(text, "compare golden vs attested@arduino [golden-comparator]: no trojan suspected") {
		t.Errorf("the trojaned run's arduino-side capture did not pass the paper's golden workflow:\n%s", text)
	}
}

func TestRunRejectsMissingSpec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run([]string{}, &out); err == nil {
		t.Error("empty spec list accepted")
	}
}

// TestUnrepresentableMovesAreScenarioErrors: G-code whose moves the
// simulator cannot represent — a microstep target past 2^53 or a move
// too long for the simulation clock — fails its own scenario with a
// row naming the command, and the runner exits non-zero. It used to
// panic the whole process.
func TestUnrepresentableMovesAreScenarioErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ name, src, want string }{
		{"overflow", "G1 X99999999999999999999\nG1 X5\n", "(line 1): X target 1e+20 mm is outside ±2^53 microsteps"},
		{"homed", "G28\nG1 X99999999999999999999\n", "(line 2): X target 1e+20 mm is outside ±2^53 microsteps"},
		{"slow", "G1 X1000000000 F0.0000001\n", "(line 1): move duration 1e+11 s does not fit the simulation clock"},
	}
	var scenarios []string
	for _, c := range cases {
		if err := os.WriteFile(filepath.Join(dir, c.name+".gcode"), []byte(c.src), 0o644); err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, fmt.Sprintf(`{"name": %q, "program": {"file": %q}}`, c.name, c.name+".gcode"))
	}
	spec := filepath.Join(dir, "poison.json")
	doc := fmt.Sprintf(`{"name": "poison", "scenarios": [%s]}`, strings.Join(scenarios, ", "))
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{spec}, &out); err == nil {
		t.Fatalf("poison suite exited zero:\n%s", out.String())
	}
	rows := strings.Split(out.String(), "\n")
	for _, c := range cases {
		prefix := fmt.Sprintf("error: offramps: scenario %q: compiling move plan: firmware: command", c.name)
		found := false
		for _, row := range rows {
			found = found || strings.Contains(row, prefix) && strings.HasSuffix(row, c.want)
		}
		if !found {
			t.Errorf("%s: no error row ending %q:\n%s", c.name, c.want, out.String())
		}
	}
}

// TestGridTableIIExampleSpec runs the committed Table II grid sweep in
// -grid mode: the generator expands the eight Flaw3D cases plus golden
// and clean control, and every tampered print is detected while the
// clean control passes — the paper's Table II from a 30-line grid file.
func TestGridTableIIExampleSpec(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "grid_tableii.json")
	var out strings.Builder
	if err := run([]string{"-grid", spec}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for i := 1; i <= 8; i++ {
		want := fmt.Sprintf("compare golden vs flaw3d-%d [golden-comparator]: TROJAN LIKELY", i)
		if !strings.Contains(text, want) {
			t.Errorf("flaw3d case %d not detected:\n%s", i, text)
		}
	}
	if !strings.Contains(text, "compare golden vs clean-control [golden-comparator]: no trojan suspected") {
		t.Errorf("clean control false-positived:\n%s", text)
	}
}

// runShards runs spec as count hash-keyed shards, each streaming to
// shardN.jsonl in dir, and returns the stream paths.
func runShards(t *testing.T, dir string, count int, args ...string) []string {
	t.Helper()
	var streams []string
	for i := 1; i <= count; i++ {
		stream := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		shardArgs := append([]string{"-shard", fmt.Sprintf("%d/%d", i, count), "-jsonl", stream}, args...)
		var out strings.Builder
		if err := run(shardArgs, &out); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		streams = append(streams, stream)
	}
	return streams
}

// readFile returns a file's bytes or fails the test.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMergeFromJSONLStreams: -merge stitches per-shard -jsonl streams
// into the same bytes as the unsharded run, whether they arrive as
// separate files or as one concatenated stream (whose repeated helper
// rows the resume index drops first-wins).
func TestMergeFromJSONLStreams(t *testing.T) {
	grid := filepath.Join("testdata", "grid_shard.json")
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	var out strings.Builder
	if err := run([]string{"-grid", "-json", full, grid}, &out); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, full)

	streams := runShards(t, dir, 2, "-grid", grid)
	merged := filepath.Join(dir, "merged.json")
	if err := run(append([]string{"-grid", "-merge", "-json", merged, grid}, streams...), &out); err != nil {
		t.Fatalf("stream merge: %v", err)
	}
	if !bytes.Equal(readFile(t, merged), want) {
		t.Error("stream-merged report is not byte-identical to the unsharded run")
	}

	all := filepath.Join(dir, "all.jsonl")
	if err := os.WriteFile(all, append(readFile(t, streams[0]), readFile(t, streams[1])...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-grid", "-merge", "-json", merged, grid, all}, &out); err != nil {
		t.Fatalf("concatenated merge: %v", err)
	}
	if !bytes.Equal(readFile(t, merged), want) {
		t.Error("concatenated-stream merge is not byte-identical to the unsharded run")
	}
}

// TestMergeDetectsCoverageGap: merging fewer shards than the sweep needs
// must fail loudly, not emit a silently incomplete report, and so must
// two streams that disagree on a row.
func TestMergeDetectsCoverageGap(t *testing.T) {
	grid := filepath.Join("testdata", "grid_shard.json")
	dir := t.TempDir()
	merged := filepath.Join(dir, "merged.json")
	shard1 := runShards(t, dir, 4, "-grid", grid)[0]
	var out strings.Builder
	err := run([]string{"-grid", "-merge", "-json", merged, grid, shard1}, &out)
	if err == nil || !strings.Contains(err.Error(), "coverage gap") {
		t.Errorf("partial merge accepted: %v", err)
	}
	// The same stream twice repeats every row byte for byte: the first
	// copy wins and the gap is still a gap.
	err = run([]string{"-grid", "-merge", "-json", merged, grid, shard1, shard1}, &out)
	if err == nil || !strings.Contains(err.Error(), "coverage gap") {
		t.Errorf("doubled partial merge accepted: %v", err)
	}

	// A second stream whose copy of the golden row has edited bytes.
	data := readFile(t, shard1)
	var edited []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.Contains(line, `"name":"golden"`) {
			line = strings.Replace(line, `"Completed":true`, `"Completed":false`, 1)
		}
		edited = append(edited, line)
	}
	tampered := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(tampered, []byte(strings.Join(edited, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(readFile(t, tampered), data) {
		t.Fatal("edit did not change the stream")
	}
	err = run([]string{"-grid", "-merge", "-json", merged, grid, shard1, tampered}, &out)
	if err == nil || !strings.Contains(err.Error(), `scenario "golden" differs`) {
		t.Errorf("conflicting rows merged: %v", err)
	}
}

// TestShardFlagValidation covers the CLI-level shard/merge guards.
func TestShardFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-shard", "9/4", filepath.Join("testdata", "grid_shard.json")}, &out); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run([]string{"-shard", "1/4", "-merge", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-shard with -merge accepted: %v", err)
	}
	for _, flag := range []string{"-json", "-csv"} {
		if err := run([]string{"-shard", "1/4", flag, "out", "x.json"}, &out); err == nil || !strings.Contains(err.Error(), "not supported with -shard") {
			t.Errorf("-shard with %s accepted: %v", flag, err)
		}
	}
	if err := run([]string{"-merge", "onlyspec.json"}, &out); err == nil {
		t.Error("merge without shard streams accepted")
	}
	if err := run([]string{"-merge", "-csv", "rows.csv", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "not supported with -merge") {
		t.Errorf("-merge with -csv accepted: %v", err)
	}
	if err := run([]string{"-merge", "-progress", "x.json", "y.jsonl"}, &out); err == nil || !strings.Contains(err.Error(), "not supported with -merge") {
		t.Errorf("-merge with -progress accepted: %v", err)
	}
}

// TestShardedJSONLStreamsCoverSuite: each shard streams every row it ran,
// helper goldens included, so the concatenated streams cover every
// scenario and comparison of the suite, and every row that repeats
// across shards repeats byte for byte.
func TestShardedJSONLStreamsCoverSuite(t *testing.T) {
	grid := filepath.Join("testdata", "grid_shard.json")
	suite, err := offramps.LoadSuiteOrGrid(grid, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]byte{}
	repeats := 0
	for _, stream := range runShards(t, t.TempDir(), 4, "-grid", grid) {
		for _, line := range strings.Split(strings.TrimSpace(string(readFile(t, stream))), "\n") {
			if line == "" {
				continue // a shard that owns no scenario streams nothing
			}
			row, err := offramps.ParseStreamRow([]byte(line))
			if err != nil {
				t.Fatalf("bad row %q: %v", line, err)
			}
			key := row.Name
			if key == "" {
				key = "compare " + row.Key
			}
			if first, ok := rows[key]; ok {
				repeats++
				if !bytes.Equal(first, row.Report) {
					t.Errorf("%q streamed with different bytes by two shards", key)
				}
			}
			rows[key] = row.Report
		}
	}
	for _, sc := range suite.Scenarios {
		if _, ok := rows[sc.Name]; !ok {
			t.Errorf("scenario %q missing from every shard stream", sc.Name)
		}
	}
	for _, c := range suite.Compare {
		if _, ok := rows["compare "+offramps.CompareKey(c.Golden, c.GoldenTap, c.Suspect, c.SuspectTap)]; !ok {
			t.Errorf("comparison %s vs %s missing from every shard stream", c.Golden, c.Suspect)
		}
	}
	if len(rows) != len(suite.Scenarios)+len(suite.Compare) {
		t.Errorf("streams carry %d distinct rows, want %d", len(rows), len(suite.Scenarios)+len(suite.Compare))
	}
	if repeats == 0 {
		t.Error("no helper golden repeated across shards; the test grid no longer exercises the closure")
	}
}

// TestMergePerTapComparisons: two comparisons of the same scenario pair
// that differ only in tap (the attestation-style §V-D pattern) must
// survive the shard→merge round trip as distinct rows, byte-identical
// to the unsharded report.
func TestMergePerTapComparisons(t *testing.T) {
	spec := filepath.Join("testdata", "pertap_compare.json")
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	var out strings.Builder
	if err := run([]string{"-json", full, spec}, &out); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.json")
	mergeArgs := append([]string{"-merge", "-json", merged, spec}, runShards(t, dir, 2, spec)...)
	if err := run(mergeArgs, &out); err != nil {
		t.Fatalf("merge: %v", err)
	}
	want := readFile(t, full)
	if !bytes.Equal(readFile(t, merged), want) {
		t.Errorf("per-tap merged report differs from the unsharded run")
	}
	if !strings.Contains(string(want), `"suspectTap": "ramps"`) {
		t.Errorf("comparison rows do not carry their tap:\n%s", want)
	}
}

// TestGoldenStoreWarmRerun is the persistent-store acceptance test at
// the command level: a cold invocation populates -golden-store, a second
// invocation (fresh process state: new cache, reopened store) replays
// the suite with zero golden simulations, and the two JSON reports are
// byte-identical.
func TestGoldenStoreWarmRerun(t *testing.T) {
	spec := filepath.Join(repoRoot(t), "examples", "specs", "tapside.json")
	tmp := t.TempDir()
	storeDir := filepath.Join(tmp, "goldens")
	coldJSON := filepath.Join(tmp, "cold.json")
	warmJSON := filepath.Join(tmp, "warm.json")

	var coldOut strings.Builder
	if err := run([]string{"-golden-store", storeDir, "-json", coldJSON, spec}, &coldOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldOut.String(), "golden store: 0 hits, 1 misses, 1 simulations") {
		t.Errorf("cold run stats missing or wrong:\n%s", coldOut.String())
	}

	var warmOut strings.Builder
	if err := run([]string{"-golden-store", storeDir, "-json", warmJSON, spec}, &warmOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmOut.String(), "golden store: 1 hits, 0 misses, 0 simulations") {
		t.Errorf("warm run still simulating goldens:\n%s", warmOut.String())
	}

	cold, err := os.ReadFile(coldJSON)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm report differs from cold report")
	}
}
