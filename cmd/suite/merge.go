package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"offramps"
)

// Shard merging. Each shard ran a hash-keyed slice of one suite plus
// the helper goldens that slice needs, and wrote every row it executed
// to a -jsonl stream; a farm coordinator's journal is the same kind of
// stream. The merge re-expands the suite (or grid) to recover the
// canonical scenario order, folds the streams with the coordinator's
// rule — first copy of a row wins — stitches the rows back into that
// order (StitchReport), and re-emits through the same JSON encoder the
// live path uses (EncodeReport), so the merged report is byte-identical
// to an unsharded run of the same suite and seeds. Rows are carried as
// raw JSON: the merge never re-simulates, re-parses floats, or reorders
// keys.

func runMerge(grid bool, seed uint64, paths []string, jsonOut string, stdout io.Writer) error {
	if len(paths) < 2 {
		return fmt.Errorf("-merge needs the spec/grid file followed by at least one -jsonl stream")
	}
	suite, err := offramps.LoadSuiteOrGrid(paths[0], grid)
	if err != nil {
		return err
	}
	if seed != 0 {
		suite.BaseSeed = seed
	}

	results := make(map[string]json.RawMessage)
	compares := make(map[string]json.RawMessage)
	for _, p := range paths[1:] {
		if err := mergeStream(p, suite, results, compares, stdout); err != nil {
			return err
		}
	}

	merged, err := offramps.StitchReport(suite, results, compares)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merged %d streams of suite %s: %d scenarios, %d comparisons\n",
		len(paths)-1, suite.Name, len(merged.Results), len(merged.Comparisons))
	if jsonOut != "" {
		if err := writeJSONDoc(jsonOut, stdout, offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*merged}}); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	return merged.FirstError()
}

// mergeStream folds one -jsonl stream (a shard's or a farm journal)
// into the row maps. Within a stream the resume index keeps the first
// copy of a row; across streams a repeat — a helper golden run by
// several shards, or a shard merged twice — is dropped too, but only if
// its bytes match: determinism makes every honest repeat identical, so
// a difference means the streams disagree on a result.
func mergeStream(path string, suite *offramps.SuiteSpec, results, compares map[string]json.RawMessage, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	ix, err := offramps.ReadResumeIndex(f, suite.Name)
	f.Close()
	if err != nil {
		return fmt.Errorf("stream %s: %w", path, err)
	}
	if err := ix.Validate(suite); err != nil {
		return fmt.Errorf("stream %s: %w", path, err)
	}
	if ix.Torn {
		// An interrupted run's tail; the dropped row surfaces as a
		// coverage gap in the stitch if no other input carries it.
		fmt.Fprintf(stdout, "note: %s ends in a torn line (dropped)\n", path)
	}
	for name, raw := range ix.Scenarios {
		if first, dup := results[name]; !dup {
			results[name] = raw
		} else if !bytes.Equal(first, raw) {
			return fmt.Errorf("stream %s: scenario %q differs from an earlier stream's row", path, name)
		}
	}
	for key, raw := range ix.Compares {
		if first, dup := compares[key]; !dup {
			compares[key] = raw
		} else if !bytes.Equal(first, raw) {
			parts := strings.Split(key, "\x00")
			return fmt.Errorf("stream %s: comparison %s vs %s differs from an earlier stream's row", path, parts[0], parts[2])
		}
	}
	return nil
}
