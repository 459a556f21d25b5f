package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkGoldenPrint \t       3\t  80680280 ns/op\t   1198928 events/op\t       166.2 sim-s/op\t 2946872 B/op\t    1204 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if r.Name != "BenchmarkGoldenPrint" || r.Runs != 3 {
		t.Errorf("name/runs = %q/%d", r.Name, r.Runs)
	}
	want := map[string]float64{
		"ns/op":     80680280,
		"events/op": 1198928,
		"sim-s/op":  166.2,
		"B/op":      2946872,
		"allocs/op": 1204,
	}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
}

func TestParseBenchLineWithGOMAXPROCSSuffix(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkCampaign-8   5   1000000 ns/op   42 allocs/op")
	if !ok || r.Name != "BenchmarkCampaign-8" || r.Metrics["allocs/op"] != 42 {
		t.Errorf("parsed %+v ok=%v", r, ok)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tofframps\t1.028s",
		"",
		"BenchmarkBroken abc ns/op",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q misparsed as a benchmark", line)
		}
	}
}

func TestRunAggregatesRepetitionsToMedians(t *testing.T) {
	input := strings.Join([]string{
		"goos: linux",
		"BenchmarkGoldenPrint-8   2   100 ns/op   10 allocs/op",
		"BenchmarkCampaign-8      4   500 ns/op",
		"BenchmarkGoldenPrint-8   2   900 ns/op   14 allocs/op", // outlier
		"BenchmarkGoldenPrint-8   3   110 ns/op   12 allocs/op",
		"BenchmarkCampaign-8      4   520 ns/op",
		"PASS",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 {
		t.Errorf("runs = %d, want 3", rep.Runs)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2 (repetitions must collapse)", len(rep.Benchmarks))
	}
	gp := rep.Benchmarks[0]
	if gp.Name != "BenchmarkGoldenPrint-8" || gp.Metrics["ns/op"] != 110 || gp.Metrics["allocs/op"] != 12 {
		t.Errorf("median not taken: %+v", gp)
	}
	if gp.Runs != 2 {
		t.Errorf("iteration median = %d, want 2", gp.Runs)
	}
	if c := rep.Benchmarks[1]; c.Metrics["ns/op"] != 510 {
		t.Errorf("even-count median = %v, want 510", c.Metrics["ns/op"])
	}
}

func TestRunRecordsSpread(t *testing.T) {
	input := strings.Join([]string{
		"BenchmarkGoldenPrint-8   2   100 ns/op   10 allocs/op",
		"BenchmarkGoldenPrint-8   2   900 ns/op   14 allocs/op",
		"BenchmarkGoldenPrint-8   3   110 ns/op   12 allocs/op",
		"BenchmarkCampaign-8      4   500 ns/op",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	gp := rep.Benchmarks[0]
	if gp.Min["ns/op"] != 100 || gp.Max["ns/op"] != 900 || gp.Min["allocs/op"] != 10 || gp.Max["allocs/op"] != 14 {
		t.Errorf("spread = min %v max %v, want ns/op 100..900 and allocs/op 10..14", gp.Min, gp.Max)
	}
	if gp.Metrics["ns/op"] != 110 {
		t.Errorf("median = %v, want 110 next to the spread", gp.Metrics["ns/op"])
	}
	if c := rep.Benchmarks[1]; c.Min != nil || c.Max != nil {
		t.Errorf("single run grew a spread: %+v", c)
	}
	if !strings.Contains(out.String(), `"min"`) || !strings.Contains(out.String(), `"max"`) {
		t.Errorf("spread missing from the document:\n%s", out.String())
	}
}

func TestRunSingleShotKeepsLegacyShape(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("BenchmarkGoldenPrint-8   2   100 ns/op"), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 0 {
		t.Errorf("single-shot report grew a top-level runs field: %d", rep.Runs)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Metrics["ns/op"] != 100 {
		t.Errorf("single-shot result mangled: %+v", rep.Benchmarks)
	}
}

func TestParseHeader(t *testing.T) {
	rep := Report{}
	for _, line := range []string{
		"goos: linux",
		"goarch: amd64",
		"pkg: offramps",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
	} {
		parseHeader(&rep, line)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU == "" {
		t.Errorf("header = %+v", rep)
	}
}

func TestBenchBase(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkCampaign-8":     "BenchmarkCampaign",
		"BenchmarkCampaign":       "BenchmarkCampaign",
		"BenchmarkCampaign-":      "BenchmarkCampaign-",
		"BenchmarkT2-Masking":     "BenchmarkT2-Masking",
		"BenchmarkGoldenPrint-16": "BenchmarkGoldenPrint",
	} {
		if got := benchBase(in); got != want {
			t.Errorf("benchBase(%q) = %q, want %q", in, got, want)
		}
	}
}

func writeBenchReport(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	rep := Report{}
	for bench, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Result{Name: bench, Runs: 2, Metrics: map[string]float64{"ns/op": v}})
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompareAnnotatesRegressions(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchReport(t, dir, "old.json", map[string]float64{
		"BenchmarkGoldenPrint": 100_000_000, "BenchmarkCampaign-8": 400_000_000,
	})
	cur := writeBenchReport(t, dir, "new.json", map[string]float64{
		"BenchmarkGoldenPrint-8": 130_000_000, "BenchmarkCampaign": 390_000_000,
	})
	var out strings.Builder
	if err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint,BenchmarkCampaign", 15, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "::warning title=bench regression::BenchmarkGoldenPrint ns/op regressed +30.0%") {
		t.Errorf("30%% regression not annotated:\n%s", text)
	}
	if strings.Contains(text, "::warning title=bench regression::BenchmarkCampaign") {
		t.Errorf("improvement annotated as regression:\n%s", text)
	}
	if !strings.Contains(text, "BenchmarkCampaign: ns/op 400000000 -> 390000000 (-2.5%)") {
		t.Errorf("delta line missing:\n%s", text)
	}
}

// TestRunCompareRefusesDifferentIterationCounts: a benchmark the two
// reports ran at different iteration counts gets no delta and no
// regression annotation, while one at equal counts still compares.
func TestRunCompareRefusesDifferentIterationCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, golden int64) string {
		rep := Report{Benchmarks: []Result{
			{Name: "BenchmarkGoldenPrint-8", Runs: golden, Metrics: map[string]float64{"ns/op": 100}},
			{Name: "BenchmarkCampaign-8", Runs: 2, Metrics: map[string]float64{"ns/op": 100}},
		}}
		if name == "new.json" {
			for i := range rep.Benchmarks {
				rep.Benchmarks[i].Metrics["ns/op"] = 200
			}
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old, cur := write("old.json", 10), write("new.json", 2)
	var out strings.Builder
	if err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint,BenchmarkCampaign", 15, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "BenchmarkGoldenPrint: not comparable: 10 vs 2 iterations") {
		t.Errorf("iteration mismatch not reported:\n%s", text)
	}
	if strings.Contains(text, "BenchmarkGoldenPrint: ns/op") || strings.Contains(text, "regression::BenchmarkGoldenPrint") {
		t.Errorf("delta printed across iteration counts:\n%s", text)
	}
	if !strings.Contains(text, "BenchmarkCampaign: ns/op 100 -> 200 (+100.0%)") {
		t.Errorf("equal-count benchmark not compared:\n%s", text)
	}
}

func TestRunCompareMissingBenchFails(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchReport(t, dir, "old.json", map[string]float64{"BenchmarkGoldenPrint": 1})
	cur := writeBenchReport(t, dir, "new.json", map[string]float64{"BenchmarkOther": 1})
	var out strings.Builder
	err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint", 15, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing benchmark tolerated: %v", err)
	}

	// A benchmark present in both reports but without the tracked metric
	// in the new one is equally a broken harness, not a -100% win.
	old = writeBenchReport(t, dir, "old2.json", map[string]float64{"BenchmarkGoldenPrint": 100})
	cur = writeBenchReport(t, dir, "new2.json", map[string]float64{"BenchmarkGoldenPrint": 100})
	err = runCompare(old, cur, "allocs/op", "BenchmarkGoldenPrint", 15, &out)
	if err == nil || !strings.Contains(err.Error(), "no allocs/op") {
		t.Errorf("vanished metric tolerated: %v", err)
	}
}

func TestRunCompareAgainstCommittedBaseline(t *testing.T) {
	// The committed BENCH_<n>.json files must stay consumable by the CI
	// compare step. Pick the newest by numeric label, matching the CI
	// step's `sort -V` (lexical order breaks at BENCH_10).
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no committed BENCH files: %v", err)
	}
	latest, best := "", -1
	for _, m := range matches {
		label := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		if n, err := strconv.Atoi(label); err == nil && n > best {
			latest, best = m, n
		}
	}
	if latest == "" {
		t.Fatalf("no numerically labelled BENCH files among %v", matches)
	}
	var out strings.Builder
	if err := runCompare(latest, latest, "ns/op", "BenchmarkGoldenPrint,BenchmarkCampaign", 15, &out); err != nil {
		t.Fatalf("self-compare of %s failed: %v", latest, err)
	}
	if !strings.Contains(out.String(), "(+0.0%)") {
		t.Errorf("self-compare deltas not zero:\n%s", out.String())
	}
}

func TestRunRecordsPkgPerBenchmark(t *testing.T) {
	input := strings.Join([]string{
		"goos: linux",
		"pkg: offramps",
		"BenchmarkGoldenPrint-8   2   100 ns/op",
		"BenchmarkShared-8        2   500 ns/op",
		"BenchmarkGoldenPrint-8   2   120 ns/op",
		"BenchmarkShared-8        2   700 ns/op",
		"ok  \tofframps\t3.1s",
		"pkg: offramps/internal/sim",
		"BenchmarkEngineSparse-8  100   7 ns/op",
		"BenchmarkShared-8        100   9 ns/op",
		"BenchmarkEngineSparse-8  100   9 ns/op",
		"BenchmarkShared-8        100   11 ns/op",
		"PASS",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		pkg, name string
		ns        float64
	}{
		{"offramps", "BenchmarkGoldenPrint-8", 110},
		{"offramps", "BenchmarkShared-8", 600},
		{"offramps/internal/sim", "BenchmarkEngineSparse-8", 8},
		{"offramps/internal/sim", "BenchmarkShared-8", 10},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %+v, want %d (same name in two packages must not merge)", rep.Benchmarks, len(want))
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Pkg != w.pkg || b.Name != w.name || b.Metrics["ns/op"] != w.ns {
			t.Errorf("benchmark %d = %s %s %v ns/op, want %s %s %v", i, b.Pkg, b.Name, b.Metrics["ns/op"], w.pkg, w.name, w.ns)
		}
	}

	// -compare resolves unique base names and package-qualified ones,
	// and refuses to guess at a name two packages share.
	dir := t.TempDir()
	path := filepath.Join(dir, "two.json")
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var cmp strings.Builder
	benches := "BenchmarkGoldenPrint,BenchmarkEngineSparse,offramps.BenchmarkShared,offramps/internal/sim.BenchmarkShared"
	if err := runCompare(path, path, "ns/op", benches, 15, &cmp); err != nil {
		t.Fatalf("compare: %v\n%s", err, cmp.String())
	}
	for _, line := range []string{
		"BenchmarkGoldenPrint: ns/op 110 -> 110 (+0.0%)",
		"BenchmarkEngineSparse: ns/op 8 -> 8 (+0.0%)",
		"offramps.BenchmarkShared: ns/op 600 -> 600 (+0.0%)",
		"offramps/internal/sim.BenchmarkShared: ns/op 10 -> 10 (+0.0%)",
	} {
		if !strings.Contains(cmp.String(), line) {
			t.Errorf("compare output lacks %q:\n%s", line, cmp.String())
		}
	}
	err := runCompare(path, path, "ns/op", "BenchmarkShared", 15, &cmp)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous bare name compared: %v", err)
	}
}

func TestRunCompareReadsLegacyReport(t *testing.T) {
	// Reports written before per-result packages carry one top-level pkg
	// (often the wrong one) and none per benchmark.
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	legacy := `{"goos":"linux","pkg":"offramps/internal/sim","runs":5,"benchmarks":[
		{"name":"BenchmarkGoldenPrint-2","runs":2,"metrics":{"ns/op":200}},
		{"name":"BenchmarkEngineTicker-2","runs":100,"metrics":{"ns/op":50}}]}`
	if err := os.WriteFile(old, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	if err := run(strings.NewReader("pkg: offramps\nBenchmarkGoldenPrint-8 2 100 ns/op\npkg: offramps/internal/sim\nBenchmarkEngineTicker-8 100 40 ns/op"), &in); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "new.json")
	if err := os.WriteFile(cur, []byte(in.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCompare(old, cur, "ns/op", "BenchmarkGoldenPrint,BenchmarkEngineTicker", 15, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"BenchmarkGoldenPrint: ns/op 200 -> 100 (-50.0%)",
		"BenchmarkEngineTicker: ns/op 50 -> 40 (-20.0%)",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("legacy compare lacks %q:\n%s", line, out.String())
		}
	}
}
