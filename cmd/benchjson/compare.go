package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Comparison mode: `benchjson -compare old.json new.json` diffs two
// archived reports and annotates regressions. CI points old.json at the
// newest committed BENCH_<n>.json and new.json at the run's fresh
// results; any benchmark whose tracked metric regressed past the
// threshold emits a GitHub Actions ::warning:: annotation. A benchmark
// the two reports ran at different iteration counts ("runs") is
// reported as not comparable, with no delta. The exit status stays zero
// — perf tracking is advisory, not a gate — unless a compared benchmark
// is missing from the new report, which means the bench harness itself
// broke.

// loadReport reads an archived benchjson document and indexes it by the
// names -benches may use: each benchmark's base name (the "-8"
// GOMAXPROCS suffix stripped, so reports from different machines
// compare) and, when the result records its package, "pkg.Name". A base
// name two packages share indexes both results; lookup reports it as
// ambiguous.
func loadReport(path string) (map[string][]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string][]Result, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		base := benchBase(b.Name)
		out[base] = append(out[base], b)
		if b.Pkg != "" {
			out[b.Pkg+"."+base] = append(out[b.Pkg+"."+base], b)
		}
	}
	return out, nil
}

// lookup resolves one -benches name in an indexed report.
func lookup(rep map[string][]Result, name, path string) (Result, bool, error) {
	rs := rep[name]
	switch len(rs) {
	case 0:
		return Result{}, false, nil
	case 1:
		return rs[0], true, nil
	}
	var pkgs []string
	for _, r := range rs {
		pkgs = append(pkgs, r.Pkg+"."+name)
	}
	return Result{}, false, fmt.Errorf("%s: %s is ambiguous, name one of %s", path, name, strings.Join(pkgs, ", "))
}

// benchBase strips a trailing "-<digits>" GOMAXPROCS suffix.
func benchBase(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i == len(name)-1 {
		return name
	}
	return name[:i]
}

// runCompare diffs the named benchmarks' metric between two reports.
func runCompare(oldPath, newPath, metric, benches string, threshold float64, out io.Writer) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}

	var missing []string
	for _, name := range strings.Split(benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		n, ok, err := lookup(newRep, name, newPath)
		if err != nil {
			return err
		}
		if !ok {
			missing = append(missing, name)
			continue
		}
		o, ok, err := lookup(oldRep, name, oldPath)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintf(out, "%s: not in baseline %s, skipping\n", name, oldPath)
			continue
		}
		ov, nv := o.Metrics[metric], n.Metrics[metric]
		if nv == 0 {
			// A tracked metric vanishing from the fresh report is a broken
			// bench harness, not a 100% improvement.
			missing = append(missing, fmt.Sprintf("%s (no %s)", name, metric))
			continue
		}
		if o.Runs != n.Runs {
			// A per-op figure moves with the iteration count (warm-up is
			// amortized over b.N), so a delta across counts is noise.
			fmt.Fprintf(out, "%s: not comparable: %d vs %d iterations in %s and %s\n", name, o.Runs, n.Runs, oldPath, newPath)
			continue
		}
		if ov == 0 {
			fmt.Fprintf(out, "%s: baseline has no %s, skipping\n", name, metric)
			continue
		}
		delta := (nv - ov) / ov * 100
		fmt.Fprintf(out, "%s: %s %.0f -> %.0f (%+.1f%%) vs %s\n", name, metric, ov, nv, delta, oldPath)
		if delta > threshold {
			fmt.Fprintf(out, "::warning title=bench regression::%s %s regressed %+.1f%% vs %s (threshold %.0f%%)\n",
				name, metric, delta, oldPath, threshold)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks missing from %s: %s", newPath, strings.Join(missing, ", "))
	}
	return nil
}
