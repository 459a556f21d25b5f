package offramps

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"offramps/internal/detect"
	"offramps/internal/fpga"
	"offramps/internal/sched"
	"offramps/internal/trojan"
)

// sinkScenarios builds a small campaign input: three clean prints on
// distinct seeds.
func sinkScenarios(t *testing.T) []Scenario {
	t.Helper()
	prog, err := TestPart()
	if err != nil {
		t.Fatal(err)
	}
	var out []Scenario
	for i := 0; i < 3; i++ {
		out = append(out, Scenario{Name: fmt.Sprintf("s%d", i), Program: prog, Seed: uint64(i) + 1})
	}
	return out
}

// TestCampaignStreamsToSinks: every completed scenario reaches every
// sink exactly once, regardless of completion order.
func TestCampaignStreamsToSinks(t *testing.T) {
	var jsonl, prog strings.Builder
	jl := NewJSONLSink(&jsonl)
	jl.Label = "stream-test"
	ps := &ProgressSink{W: &prog, Total: 3}
	c := Campaign{Workers: 2, Sinks: []ResultSink{jl, ps}}

	results, err := c.Run(context.Background(), sinkScenarios(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Sinks {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}

	// JSONL: one self-describing row per scenario, any order.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl rows = %d:\n%s", len(lines), jsonl.String())
	}
	names := map[string]bool{}
	for _, l := range lines {
		var row struct {
			Suite  string `json:"suite"`
			Name   string `json:"name"`
			Seed   uint64 `json:"seed"`
			Result struct {
				Completed bool
			} `json:"result"`
		}
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("bad jsonl row %q: %v", l, err)
		}
		if row.Suite != "stream-test" || row.Seed == 0 || !row.Result.Completed {
			t.Errorf("row %+v", row)
		}
		names[row.Name] = true
	}
	if len(names) != 3 {
		t.Errorf("jsonl names = %v", names)
	}

	// Progress: [i/3] framing on each of the three lines.
	plines := strings.Split(strings.TrimSpace(prog.String()), "\n")
	if len(plines) != 3 {
		t.Fatalf("progress lines = %d:\n%s", len(plines), prog.String())
	}
	for i, l := range plines {
		if !strings.HasPrefix(l, fmt.Sprintf("[%d/3] ", i+1)) {
			t.Errorf("progress line %d = %q", i, l)
		}
	}
}

// failSink fails on the second emit.
type failSink struct{ n int }

func (s *failSink) Emit(ScenarioResult) error {
	s.n++
	if s.n == 2 {
		return errors.New("disk full")
	}
	return nil
}
func (s *failSink) Close() error { return nil }

// TestCampaignSinkError: a failing sink surfaces its error from Run —
// after every scenario still completed.
func TestCampaignSinkError(t *testing.T) {
	c := Campaign{Workers: 2, Sinks: []ResultSink{&failSink{}}}
	results, err := c.Run(context.Background(), sinkScenarios(t))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the sink failure", err)
	}
	for _, r := range results {
		if r.Err != nil || r.Result == nil {
			t.Errorf("scenario %s did not complete: %+v", r.Name, r)
		}
	}
}

// TestSinkErrorRows: error results render as self-describing rows, not
// panics, in every sink.
func TestSinkErrorRows(t *testing.T) {
	r := ScenarioResult{Name: "boom", Seed: 7, Err: errors.New("factory failed")}
	var jsonl strings.Builder
	if err := NewJSONLSink(&jsonl).Emit(r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"error":"factory failed"`) {
		t.Errorf("jsonl error row = %s", jsonl.String())
	}
	row := ScenarioCSVRow("s", r)
	if row[len(row)-1] != "factory failed" {
		t.Errorf("csv error row = %v", row)
	}
	var prog strings.Builder
	ps := &ProgressSink{W: &prog}
	if err := ps.Emit(r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "error: factory failed") || !strings.Contains(prog.String(), "[1/?]") {
		t.Errorf("progress error row = %q", prog.String())
	}
}

// TestSuiteContinuesOnSinkError: a sink failure must not abort the
// suite — later waves and comparisons still run, the report is
// complete, and the typed SinkError surfaces at the end.
func TestSuiteContinuesOnSinkError(t *testing.T) {
	suite := &SuiteSpec{
		Name:     "sinkfail",
		BaseSeed: 1,
		Scenarios: []ScenarioSpec{
			{Name: "golden"},
			{Name: "suspect", SeedDelta: 5,
				Detector: &DetectorSpec{Name: "golden-monitor", Golden: "golden"}},
		},
		Compare: []CompareSpec{{Golden: "golden", Suspect: "suspect"}},
	}
	c := Campaign{Sinks: []ResultSink{&failSink{}}}
	rep, err := c.RunSuite(context.Background(), suite)
	var se *SinkError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *SinkError", err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d, want 2 (second wave must still run)", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Err != nil || r.Result == nil {
			t.Errorf("scenario %s incomplete: %+v", r.Name, r)
		}
	}
	if len(rep.Comparisons) != 1 || rep.Comparisons[0].Err != nil {
		t.Errorf("comparisons did not run: %+v", rep.Comparisons)
	}
}

// resumeSuite is the fixture for stream/resume tests: four scenarios
// with distinct effective seeds and one comparison.
func resumeSuite() *SuiteSpec {
	return &SuiteSpec{
		Name:     "rs",
		BaseSeed: 10,
		Scenarios: []ScenarioSpec{
			{Name: "g"},
			{Name: "a", SeedDelta: 1},
			{Name: "b", SeedDelta: 2},
			{Name: "c", SeedDelta: 3},
		},
		Compare: []CompareSpec{{Golden: "g", Suspect: "a"}},
	}
}

// resumeStream renders JSONL rows for the named scenarios (and the
// comparison, when asked) exactly as JSONLSink writes them.
func resumeStream(t *testing.T, names []string, withCompare bool) string {
	t.Helper()
	s := resumeSuite()
	var buf strings.Builder
	sink := NewJSONLSink(&buf)
	sink.Label = s.Name
	for _, name := range names {
		sc, ok := s.FindScenario(name)
		if !ok {
			t.Fatalf("fixture scenario %q missing", name)
		}
		if err := sink.Emit(ScenarioResult{Name: name, Seed: sc.EffectiveSeed(s.BaseSeed)}); err != nil {
			t.Fatal(err)
		}
	}
	if withCompare {
		if err := sink.EmitCompare(CompareResult{Golden: "g", Suspect: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestResumeIndexComplement: a stream covering a strict subset — with a
// torn trailing line on top — must yield exactly the complement, in
// canonical suite order, as the scenarios still to run.
func TestResumeIndexComplement(t *testing.T) {
	stream := resumeStream(t, []string{"c", "g"}, true) + `{"suite":"rs","name":"b","se`
	ix, err := ReadResumeIndex(strings.NewReader(stream), "rs")
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Torn {
		t.Error("torn trailing line not reported")
	}
	s := resumeSuite()
	if err := ix.Validate(s); err != nil {
		t.Fatal(err)
	}
	got := ix.Missing(s)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Missing = %v, want [a b]", got)
	}
	if len(ix.Compares) != 1 {
		t.Errorf("compares recovered = %d, want 1", len(ix.Compares))
	}
}

// TestResumeIndexComplete: a stream covering every scenario seeds an
// empty queue.
func TestResumeIndexComplete(t *testing.T) {
	stream := resumeStream(t, []string{"g", "a", "b", "c"}, true)
	ix, err := ReadResumeIndex(strings.NewReader(stream), "rs")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Torn {
		t.Error("intact stream reported torn")
	}
	if got := ix.Missing(resumeSuite()); len(got) != 0 {
		t.Errorf("Missing = %v, want none", got)
	}
}

// TestResumeIndexRejectsMidstreamCorruption: a malformed line is only
// tolerable as the stream's tail; followed by more rows it is
// corruption, not a crash artifact.
func TestResumeIndexRejectsMidstreamCorruption(t *testing.T) {
	rows := strings.SplitAfter(resumeStream(t, []string{"g", "a"}, false), "\n")
	stream := rows[0] + "{torn garbage\n" + rows[1]
	if _, err := ReadResumeIndex(strings.NewReader(stream), "rs"); err == nil ||
		!strings.Contains(err.Error(), "not the stream's tail") {
		t.Errorf("midstream corruption accepted: %v", err)
	}
}

// TestResumeIndexFirstWinsAndForeignSuites: duplicate rows keep the
// first occurrence; rows labelled with another suite are skipped.
func TestResumeIndexFirstWinsAndForeignSuites(t *testing.T) {
	stream := resumeStream(t, []string{"g", "g"}, false) +
		`{"suite":"other","name":"x","seed":1,"result":null}` + "\n"
	ix, err := ReadResumeIndex(strings.NewReader(stream), "rs")
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Scenarios) != 1 {
		t.Errorf("scenarios = %d, want 1 (dup dropped, foreign suite skipped)", len(ix.Scenarios))
	}
}

// TestResumeIndexValidateDrift: rows from a different base seed or an
// edited suite must be refused — resuming from them would stitch a lie.
func TestResumeIndexValidateDrift(t *testing.T) {
	s := resumeSuite()
	var buf strings.Builder
	sink := NewJSONLSink(&buf)
	sink.Label = "rs"
	if err := sink.Emit(ScenarioResult{Name: "a", Seed: 999}); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadResumeIndex(strings.NewReader(buf.String()), "rs")
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(s); err == nil || !strings.Contains(err.Error(), "different base seed") {
		t.Errorf("seed drift accepted: %v", err)
	}

	stream := resumeStream(t, nil, false) + `{"suite":"rs","name":"zzz","seed":1,"result":null}` + "\n"
	ix, err = ReadResumeIndex(strings.NewReader(stream), "rs")
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(s); err == nil || !strings.Contains(err.Error(), "stale stream") {
		t.Errorf("unknown scenario accepted: %v", err)
	}
}

// TestParseStreamRowRoundTrip: a scenario row parsed from the stream
// reconstructs byte-for-byte the report row ScenarioResult marshals to,
// and a comparison row carries its object verbatim — the foundation of
// every byte-identity guarantee downstream.
func TestParseStreamRowRoundTrip(t *testing.T) {
	res := ScenarioResult{Name: "a", Seed: 11, Err: errors.New("boom")}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sink := NewJSONLSink(&buf)
	sink.Label = "rs"
	if err := sink.Emit(res); err != nil {
		t.Fatal(err)
	}
	row, err := ParseStreamRow([]byte(strings.TrimSpace(buf.String())))
	if err != nil {
		t.Fatal(err)
	}
	if string(row.Report) != string(want) {
		t.Errorf("reconstructed row = %s, want %s", row.Report, want)
	}

	buf.Reset()
	cmp := CompareResult{Golden: "g", Suspect: "a", SuspectTap: "ramps"}
	cmpWant, err := json.Marshal(cmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.EmitCompare(cmp); err != nil {
		t.Fatal(err)
	}
	crow, err := ParseStreamRow([]byte(strings.TrimSpace(buf.String())))
	if err != nil {
		t.Fatal(err)
	}
	if crow.Key != CompareKey("g", "", "a", "ramps") {
		t.Errorf("compare key = %q", crow.Key)
	}
	if string(crow.Report) != string(cmpWant) {
		t.Errorf("compare row = %s, want %s", crow.Report, cmpWant)
	}
}

// TestProgressSinkCacheStats: with a cache attached, every progress line
// reports live hit/miss counts.
func TestProgressSinkCacheStats(t *testing.T) {
	cache := NewGoldenCache()
	var out strings.Builder
	ps := &ProgressSink{W: &out, Total: 2, Cache: cache}
	if err := ps.Emit(ScenarioResult{Name: "a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache 0 hit / 0 miss") {
		t.Errorf("progress line lacks cache stats: %q", out.String())
	}
}

// TestScenarioVerdict tables every verdict state through every adapter
// of the one verdict rule: the in-memory adapter the progressive
// executor observes with, the raw-row adapter over rows that went
// through JSONLSink and ParseStreamRow (as farm completions and
// journals carry them), and the report text. The text is the
// comparison-free verdict plus "not run" and "(aborted)": the
// detector-free placeholder ("-") applies only when nothing flagged the
// run, so a TrojanLikely result surfaces TROJAN LIKELY even with an
// empty Detections slice.
func TestScenarioVerdict(t *testing.T) {
	flagged := []*detect.Report{{TrojanLikely: true}}
	quiet := []*detect.Report{{}}
	cmpOf := func(trojan bool) *CompareResult {
		return &CompareResult{Report: &detect.Report{TrojanLikely: trojan}}
	}
	cmpErr := &CompareResult{Err: errors.New("no capture"), Error: "no capture"}
	cases := []struct {
		name string
		r    ScenarioResult
		// cmp is the scenario's one comparison (nil = none); goldenMissing
		// marks a comparison whose golden did not run.
		cmp           *CompareResult
		goldenMissing bool
		want          sched.Verdict
		text          string
	}{
		{name: "error", r: ScenarioResult{Err: errors.New("boom")}, want: sched.Errored, text: "error: boom"},
		{name: "error-beats-comparison", r: ScenarioResult{Err: errors.New("boom")}, cmp: cmpOf(true), want: sched.Errored, text: "error: boom"},
		{name: "skip", r: ScenarioResult{Err: errors.New(SkipMessage("early-stop, 2/2 unanimous"))}, want: sched.Errored, text: "error: skipped (early-stop, 2/2 unanimous)"},
		{name: "not-run", r: ScenarioResult{}, want: sched.Errored, text: "not run"},
		{name: "no-detector", r: ScenarioResult{Result: &Result{}}, want: sched.Unknown, text: "-"},
		{name: "clean", r: ScenarioResult{Result: &Result{Detections: quiet}}, want: sched.Clean, text: "clean"},
		{name: "trojan", r: ScenarioResult{Result: &Result{Detections: flagged, TrojanLikely: true}}, want: sched.Trojan, text: "TROJAN LIKELY"},
		{name: "detection-beats-comparison", r: ScenarioResult{Result: &Result{Detections: quiet}}, cmp: cmpOf(true), want: sched.Clean, text: "clean"},
		{name: "comparison-errored", r: ScenarioResult{Result: &Result{}}, cmp: cmpErr, want: sched.Errored, text: "-"},
		{name: "comparison-clean", r: ScenarioResult{Result: &Result{}}, cmp: cmpOf(false), want: sched.Clean, text: "-"},
		{name: "comparison-trojan", r: ScenarioResult{Result: &Result{}}, cmp: cmpOf(true), want: sched.Trojan, text: "-"},
		{name: "comparison-beats-flag", r: ScenarioResult{Result: &Result{TrojanLikely: true}}, cmp: cmpOf(false), want: sched.Clean, text: "TROJAN LIKELY"},
		{name: "comparison-golden-not-run", r: ScenarioResult{Result: &Result{}}, cmp: cmpOf(true), goldenMissing: true, want: sched.Unknown, text: "-"},
		{name: "flag-only", r: ScenarioResult{Result: &Result{TrojanLikely: true}}, want: sched.Trojan, text: "TROJAN LIKELY"},
		{name: "aborted-no-detector", r: ScenarioResult{Result: &Result{Aborted: true}}, want: sched.Unknown, text: "- (aborted)"},
		{name: "aborted-clean", r: ScenarioResult{Result: &Result{Detections: quiet, Aborted: true}}, want: sched.Clean, text: "clean (aborted)"},
		{name: "aborted-trojan", r: ScenarioResult{Result: &Result{Detections: flagged, TrojanLikely: true, Aborted: true}}, want: sched.Trojan, text: "TROJAN LIKELY (aborted)"},
	}
	// rawOf sends a row through the JSONL stream format and back.
	rawOf := func(emit func(*JSONLSink) error) json.RawMessage {
		var buf strings.Builder
		sink := NewJSONLSink(&buf)
		sink.Label = "verdicts"
		if err := emit(sink); err != nil {
			t.Fatal(err)
		}
		row, err := ParseStreamRow([]byte(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		return row.Report
	}
	textVerdicts := map[string]sched.Verdict{"TROJAN LIKELY": sched.Trojan, "clean": sched.Clean, "-": sched.Unknown}
	for _, c := range cases {
		r := c.r
		r.Name = "suspect"
		suite := &SuiteSpec{}
		results := map[string]ScenarioResult{r.Name: r}
		cache := map[int]CompareResult{}
		var rawCmp json.RawMessage
		if c.cmp != nil {
			cmp := *c.cmp
			cmp.Golden, cmp.Suspect = "golden", r.Name
			suite.Compare = []CompareSpec{{Golden: cmp.Golden, Suspect: cmp.Suspect}}
			cache[0] = cmp
			if !c.goldenMissing {
				results[cmp.Golden] = ScenarioResult{Name: cmp.Golden, Result: &Result{}}
				rawCmp = rawOf(func(s *JSONLSink) error { return s.EmitCompare(cmp) })
			}
		}

		if got := progressiveVerdict(r.Name, suite, results, cache); got != c.want {
			t.Errorf("%s: in-memory verdict = %v, want %v", c.name, got, c.want)
		}
		rawRow := rawOf(func(s *JSONLSink) error { return s.Emit(r) })
		if got := RowVerdict(rawRow, rawCmp); got != c.want {
			t.Errorf("%s: raw-row verdict = %v, want %v", c.name, got, c.want)
		}
		text := scenarioVerdict(r)
		if text != c.text {
			t.Errorf("%s: report text = %q, want %q", c.name, text, c.text)
		}
		textVerdict, ok := textVerdicts[strings.TrimSuffix(text, " (aborted)")]
		if !ok {
			textVerdict = sched.Errored // "error: ..." and "not run"
		}
		free := progressiveVerdict(r.Name, &SuiteSpec{}, map[string]ScenarioResult{r.Name: r}, nil)
		if textVerdict != free {
			t.Errorf("%s: report text %q reads %v, the comparison-free rule says %v", c.name, text, textVerdict, free)
		}
	}
}

// TestCampaignCancelKeepsSinkError: a sink failure observed before the
// context is cancelled must survive the cancel return path — callers
// match *SinkError to tell "results incomplete on disk" from a mere
// early stop.
func TestCampaignCancelKeepsSinkError(t *testing.T) {
	prog, err := TestPart()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scens := []Scenario{
		{Name: "a", Program: prog, Seed: 1, Trojan: func(uint64) fpga.Trojan {
			cancel()
			return trojan.NewT2ExtrusionReduction(trojan.T2Params{KeepRatio: 0.5})
		}},
		{Name: "b", Program: prog, Seed: 2},
	}
	_, err = Campaign{Workers: 1, Sinks: []ResultSink{alwaysFailSink{}}}.Run(ctx, scens)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	var se *SinkError
	if !errors.As(err, &se) {
		t.Errorf("sink failure dropped on the cancel path: %v", err)
	}
}

type alwaysFailSink struct{}

func (alwaysFailSink) Emit(ScenarioResult) error { return errors.New("disk full") }
func (alwaysFailSink) Close() error              { return nil }
