package offramps

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"offramps/internal/sched"
)

// SinkError wraps the first result-sink failure of a campaign. It is a
// distinct type so callers can tell "the sweep ran, a sink could not
// keep up" (results are complete and reportable) from a run failure:
// Campaign.Run returns it only after every scenario finished, and
// RunSuite keeps executing later waves and comparisons before
// surfacing it with the full report.
type SinkError struct{ Err error }

func (e *SinkError) Error() string { return "offramps: result sink: " + e.Err.Error() }
func (e *SinkError) Unwrap() error { return e.Err }

// A ResultSink receives each ScenarioResult as it completes, in
// completion order, instead of waiting for the whole campaign to buffer —
// so a million-scenario sweep streams to disk with bounded memory. The
// campaign serializes Emit calls (no sink-side locking needed) and the
// rows are self-describing (name, seed), since completion order is
// whatever the worker pool produced. Close flushes whatever the sink
// buffers; it does not close the underlying writer. The sink's owner —
// not the campaign — must call Close once after the last Emit, since
// one sink may span many campaigns.
type ResultSink interface {
	Emit(r ScenarioResult) error
	Close() error
}

// scenarioVerdict renders one result the way the suite report does: the
// comparison-free verdict rule, plus "not run" for a scenario that never
// started and "(aborted)" for a print its detector stopped.
func scenarioVerdict(r ScenarioResult) string {
	if r.Err != nil {
		return fmt.Sprintf("error: %v", r.Err)
	}
	if r.Result == nil {
		return "not run"
	}
	text := "-" // no detector looked and nothing flagged the run
	switch verdict(false, len(r.Result.Detections), r.Result.TrojanLikely, sched.Unknown) {
	case sched.Trojan:
		text = "TROJAN LIKELY"
	case sched.Clean:
		text = "clean"
	}
	if r.Result.Aborted {
		text += " (aborted)"
	}
	return text
}

// JSONLSink appends one JSON object per completed scenario — the
// streaming twin of the suite JSON report. Label (typically the suite
// name) tags every row so several suites can share one stream.
type JSONLSink struct {
	Label string
	enc   *json.Encoder
}

// NewJSONLSink streams rows to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes one row.
func (s *JSONLSink) Emit(r ScenarioResult) error {
	row := struct {
		Suite  string  `json:"suite,omitempty"`
		Name   string  `json:"name"`
		Seed   uint64  `json:"seed"`
		Result *Result `json:"result,omitempty"`
		Err    string  `json:"error,omitempty"`
	}{Suite: s.Label, Name: r.Name, Seed: r.Seed, Result: r.Result}
	if r.Err != nil {
		row.Err = r.Err.Error()
	}
	return s.enc.Encode(row)
}

// EmitCompare writes one comparison row: {"suite", "compare": {...}}.
// Comparison rows make a JSONL stream a *complete* record of a suite
// run — `suite -merge` can restitch per-shard streams (and a farm
// coordinator its journal) into a full report without the -json
// intermediate. The embedded object is CompareResult's own JSON, so the
// stitched report is byte-identical to the live path's.
func (s *JSONLSink) EmitCompare(c CompareResult) error {
	row := struct {
		Suite   string        `json:"suite,omitempty"`
		Compare CompareResult `json:"compare"`
	}{Suite: s.Label, Compare: c}
	return s.enc.Encode(row)
}

// Close is a no-op; rows are written unbuffered.
func (s *JSONLSink) Close() error { return nil }

// ScenarioCSVHeader labels the streaming scenario rows. It matches the
// batch CSV schema of cmd/suite (whose compare rows reuse the same
// columns), so streamed and batch CSVs concatenate cleanly.
var ScenarioCSVHeader = []string{
	"kind", "suite", "name", "seed", "golden", "suspect",
	"completed", "aborted", "trojan_likely", "mismatches", "final_mismatches",
	"largest_pct", "duration_s", "windows", "filament_mm", "error",
}

// ScenarioCSVRow renders one scenario result as a CSV record under
// ScenarioCSVHeader. suite tags the row's suite column.
func ScenarioCSVRow(suite string, r ScenarioResult) []string {
	row := []string{"scenario", suite, r.Name, strconv.FormatUint(r.Seed, 10), "", ""}
	if r.Err != nil {
		return append(row, "", "", "", "", "", "", "", "", "", r.Err.Error())
	}
	if r.Result == nil {
		return append(row, "", "", "", "", "", "", "", "", "", "not run")
	}
	res := r.Result
	windows := 0
	if res.Recording != nil {
		windows = res.Recording.Len()
	} else if res.Fingerprint != nil {
		windows = res.Fingerprint.Windows
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	return append(row,
		strconv.FormatBool(res.Completed),
		strconv.FormatBool(res.Aborted),
		strconv.FormatBool(res.TrojanLikely),
		"", "", "",
		f(res.Duration.Seconds()),
		strconv.Itoa(windows),
		f(res.Quality.TotalFilament),
		"",
	)
}

// CSVSink streams scenario rows as CSV, writing the header before the
// first row. Label fills the suite column.
type CSVSink struct {
	Label       string
	w           *csv.Writer
	wroteHeader bool
}

// NewCSVSink streams CSV records to w.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Emit writes one record (plus the header, first time).
func (s *CSVSink) Emit(r ScenarioResult) error {
	if !s.wroteHeader {
		if err := s.w.Write(ScenarioCSVHeader); err != nil {
			return err
		}
		s.wroteHeader = true
	}
	return s.w.Write(ScenarioCSVRow(s.Label, r))
}

// Close flushes buffered records.
func (s *CSVSink) Close() error {
	s.w.Flush()
	return s.w.Error()
}

// ProgressSink prints a human progress line per completed scenario —
// live feedback during long sweeps. Total, when non-zero, is the
// expected scenario count for "[done/total]" framing. W is the output
// target (nil defaults to os.Stderr, keeping progress out of piped
// report streams). Cache, when set, appends the golden cache's live
// hit/miss counts to every line, so a long sweep shows its cache
// effectiveness as it runs instead of only in a post-mortem.
type ProgressSink struct {
	W     io.Writer
	Total int
	Cache *GoldenCache
	done  int
}

// Emit prints one line.
func (s *ProgressSink) Emit(r ScenarioResult) error {
	w := s.W
	if w == nil {
		w = os.Stderr
	}
	total := "?"
	if s.Total > 0 {
		total = strconv.Itoa(s.Total)
	}
	cache := ""
	if s.Cache != nil {
		hits, misses := s.Cache.Stats()
		cache = fmt.Sprintf("  cache %d hit / %d miss / %.1f MiB", hits, misses, float64(s.Cache.Bytes())/(1<<20))
	}
	s.done++
	_, err := fmt.Fprintf(w, "[%d/%s] %-24s seed=%-8d %s%s\n", s.done, total, r.Name, r.Seed, scenarioVerdict(r), cache)
	return err
}

// Close is a no-op.
func (s *ProgressSink) Close() error { return nil }

// ---------------------------------------------------------------------------
// Reading streams back: a JSONL stream written by JSONLSink (a shard's
// -jsonl output, a farm coordinator's journal) is a durable record of
// which scenarios already ran. The resume index parses one, tolerating
// the torn trailing line a crash leaves behind, so a restarted sweep
// enqueues exactly the complement. StitchReport then reassembles the
// rows of one or more streams into a report byte-identical to an
// uninterrupted run.

// CompareKey canonically keys one comparison by its scenario pair and
// taps (per-tap comparisons of the same pair are distinct rows).
func CompareKey(golden, goldenTap, suspect, suspectTap string) string {
	return golden + "\x00" + goldenTap + "\x00" + suspect + "\x00" + suspectTap
}

// StreamRow is one decoded JSONL stream line: either a scenario row
// (Name set) or a comparison row (Key set). Report carries the
// report-shaped raw JSON — for scenario rows, reconstructed into
// exactly the bytes ScenarioResult marshals to; for comparison rows,
// the embedded CompareResult object verbatim — so stitched reports
// splice rows without re-marshalling anything lossy.
type StreamRow struct {
	Suite  string
	Name   string
	Seed   uint64
	Key    string
	Report json.RawMessage
}

// jsonlRow is the wire shape of one stream line (see JSONLSink.Emit and
// EmitCompare).
type jsonlRow struct {
	Suite   string          `json:"suite"`
	Name    string          `json:"name"`
	Seed    uint64          `json:"seed"`
	Result  json.RawMessage `json:"result"`
	Err     string          `json:"error"`
	Compare json.RawMessage `json:"compare"`
}

// ParseStreamRow decodes one JSONL line.
func ParseStreamRow(line []byte) (*StreamRow, error) {
	var row jsonlRow
	if err := json.Unmarshal(line, &row); err != nil {
		return nil, fmt.Errorf("offramps: stream row: %w", err)
	}
	if len(row.Compare) > 0 {
		var head struct {
			Golden     string `json:"golden"`
			Suspect    string `json:"suspect"`
			GoldenTap  string `json:"goldenTap"`
			SuspectTap string `json:"suspectTap"`
		}
		if err := json.Unmarshal(row.Compare, &head); err != nil || head.Suspect == "" {
			return nil, fmt.Errorf("offramps: unreadable comparison row %s", line)
		}
		return &StreamRow{
			Suite:  row.Suite,
			Key:    CompareKey(head.Golden, head.GoldenTap, head.Suspect, head.SuspectTap),
			Report: row.Compare,
		}, nil
	}
	if row.Name == "" {
		return nil, fmt.Errorf("offramps: unreadable stream row %s", line)
	}
	// Rebuild the report-shaped row. The field set, order, and tags must
	// mirror ScenarioResult's MarshalJSON exactly — the byte-identity of
	// stitched reports rests on it. The result object travels verbatim.
	aux := struct {
		Name   string
		Seed   uint64
		Result json.RawMessage
		Err    string `json:",omitempty"`
	}{row.Name, row.Seed, row.Result, row.Err}
	report, err := json.Marshal(aux)
	if err != nil {
		return nil, err
	}
	return &StreamRow{Suite: row.Suite, Name: row.Name, Seed: row.Seed, Report: report}, nil
}

// ResumeIndex is what a JSONL stream proves already ran: report-shaped
// scenario rows by name and comparison rows by CompareKey, first
// occurrence winning (duplicate completions — a lease that expired
// mid-flight and was re-run — are deterministic repeats, so dropping
// later ones is sound). Torn records whether a truncated trailing line
// was discarded, the signature of a crash mid-append; Dups counts the
// duplicate rows skipped. Either being non-zero marks a stream worth
// compacting before appending more.
type ResumeIndex struct {
	Scenarios map[string]json.RawMessage
	Seeds     map[string]uint64
	Compares  map[string]json.RawMessage
	Torn      bool
	Dups      int
}

// ReadResumeIndex scans a JSONL stream. Rows labelled with a different
// suite are skipped when suite is non-empty (one stream may carry
// several suites). A malformed line is tolerated only as the final
// non-empty line of the stream — the torn tail of an interrupted append
// — and is dropped; malformed content followed by more rows is
// corruption and an error.
func ReadResumeIndex(r io.Reader, suite string) (*ResumeIndex, error) {
	ix := &ResumeIndex{
		Scenarios: make(map[string]json.RawMessage),
		Seeds:     make(map[string]uint64),
		Compares:  make(map[string]json.RawMessage),
	}
	br := bufio.NewReader(r)
	tornLine := 0 // line number of a pending malformed row; later rows make it fatal
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadString('\n')
		text := strings.TrimSpace(line)
		if text != "" {
			if tornLine != 0 {
				return nil, fmt.Errorf("offramps: resume stream line %d: malformed row is not the stream's tail", tornLine)
			}
			row, perr := ParseStreamRow([]byte(text))
			switch {
			case perr != nil:
				tornLine = lineNo
			case suite != "" && row.Suite != suite:
				// Another suite's rows sharing the stream.
			case row.Name != "":
				if _, dup := ix.Scenarios[row.Name]; dup {
					ix.Dups++
				} else {
					ix.Scenarios[row.Name] = row.Report
					ix.Seeds[row.Name] = row.Seed
				}
			default:
				if _, dup := ix.Compares[row.Key]; dup {
					ix.Dups++
				} else {
					ix.Compares[row.Key] = row.Report
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("offramps: resume stream: %w", err)
		}
	}
	ix.Torn = tornLine != 0
	return ix, nil
}

// Missing returns the suite scenarios the index does not cover, in
// canonical suite order — exactly the queue a resumed sweep seeds.
func (ix *ResumeIndex) Missing(s *SuiteSpec) []string {
	var names []string
	for _, sc := range s.Scenarios {
		if _, ok := ix.Scenarios[sc.Name]; !ok {
			names = append(names, sc.Name)
		}
	}
	return names
}

// Validate checks the index against the suite it claims to resume:
// every row must name a suite scenario and carry that scenario's
// effective seed, and every comparison must be one the suite draws. A
// mismatch means the stream belongs to a different sweep (edited grid,
// different -seed) and resuming from it would stitch a lie.
func (ix *ResumeIndex) Validate(s *SuiteSpec) error {
	for name, seed := range ix.Seeds {
		sc, ok := s.FindScenario(name)
		if !ok {
			return fmt.Errorf("offramps: resume stream has scenario %q that suite %q does not (stale stream?)", name, s.Name)
		}
		if want := sc.EffectiveSeed(s.BaseSeed); seed != want {
			return fmt.Errorf("offramps: resume stream ran scenario %q with seed %d, want %d (different base seed?)", name, seed, want)
		}
	}
	known := make(map[string]bool, len(s.Compare))
	for _, cmp := range s.Compare {
		known[CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)] = true
	}
	for key := range ix.Compares {
		if !known[key] {
			return fmt.Errorf("offramps: resume stream has a comparison suite %q does not draw: %q", s.Name, key)
		}
	}
	return nil
}

// RawSuiteReport mirrors SuiteReport with opaque rows. The tags and
// field order must match SuiteReport exactly: the byte-identity
// guarantee of merged and farm-stitched reports rests on both paths
// serializing the same shape.
type RawSuiteReport struct {
	Suite       string            `json:"suite"`
	BaseSeed    uint64            `json:"baseSeed"`
	Results     []json.RawMessage `json:"results"`
	Comparisons []json.RawMessage `json:"comparisons,omitempty"`
}

// RawReportDoc is the document cmd/suite's -json writes, over raw
// suites.
type RawReportDoc struct {
	Suites []RawSuiteReport `json:"suites"`
}

// EncodeReport writes a report document in the canonical indented form
// every emitting path shares — live -json reports, shard merges, and
// farm-stitched reports all produce their bytes here.
func EncodeReport(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// StitchReport reassembles collected rows into the suite's canonical
// report: scenario rows in spec order, comparison rows in compare
// order, every row present exactly once and carrying its expected seed.
// Coverage gaps, stale rows, and seed drift are errors — a stitched
// report either equals the uninterrupted run byte for byte or does not
// exist.
func StitchReport(s *SuiteSpec, scenarios map[string]json.RawMessage, compares map[string]json.RawMessage) (*RawSuiteReport, error) {
	out := &RawSuiteReport{Suite: s.Name, BaseSeed: s.BaseSeed, Results: make([]json.RawMessage, 0, len(s.Scenarios))}
	for _, sc := range s.Scenarios {
		raw, ok := scenarios[sc.Name]
		if !ok {
			return nil, fmt.Errorf("offramps: scenario %q missing from the collected rows (coverage gap — incomplete sweep?)", sc.Name)
		}
		var head struct {
			Name string
			Seed uint64
		}
		if err := json.Unmarshal(raw, &head); err != nil || head.Name != sc.Name {
			return nil, fmt.Errorf("offramps: unreadable scenario row for %q", sc.Name)
		}
		if want := sc.EffectiveSeed(s.BaseSeed); head.Seed != want {
			return nil, fmt.Errorf("offramps: scenario %q ran seed %d, want %d (rows from a different base seed?)", sc.Name, head.Seed, want)
		}
		out.Results = append(out.Results, raw)
	}
	if len(scenarios) > len(s.Scenarios) {
		for name := range scenarios {
			if _, ok := s.FindScenario(name); !ok {
				return nil, fmt.Errorf("offramps: collected rows contain scenario %q that the suite does not (stale rows?)", name)
			}
		}
	}
	for _, cmp := range s.Compare {
		key := CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)
		raw, ok := compares[key]
		if !ok {
			return nil, fmt.Errorf("offramps: comparison %s vs %s missing from the collected rows", cmp.Golden, cmp.Suspect)
		}
		out.Comparisons = append(out.Comparisons, raw)
	}
	if len(compares) > len(s.Compare) {
		known := make(map[string]bool, len(s.Compare))
		for _, cmp := range s.Compare {
			known[CompareKey(cmp.Golden, cmp.GoldenTap, cmp.Suspect, cmp.SuspectTap)] = true
		}
		for key := range compares {
			if !known[key] {
				return nil, fmt.Errorf("offramps: collected rows contain a comparison the suite does not: %q", key)
			}
		}
	}
	return out, nil
}

// FirstError surfaces a failed row the way the live path's error check
// does, so stitched runs exit non-zero on the same failures. Synthesized
// progressive skip rows (IsSkippedResult) are deliberate outcomes, not
// failures, and are passed over.
func (r *RawSuiteReport) FirstError() error {
	for _, raw := range r.Results {
		var head struct{ Name, Err string }
		if err := json.Unmarshal(raw, &head); err == nil && head.Err != "" && !IsSkippedResult(head.Err) {
			return fmt.Errorf("offramps: suite %s: scenario %s: %s", r.Suite, head.Name, head.Err)
		}
	}
	for _, raw := range r.Comparisons {
		var head struct {
			Golden  string `json:"golden"`
			Suspect string `json:"suspect"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(raw, &head); err == nil && head.Error != "" && !IsSkippedResult(head.Error) {
			return fmt.Errorf("offramps: suite %s: compare %s vs %s: %s", r.Suite, head.Golden, head.Suspect, head.Error)
		}
	}
	return nil
}
