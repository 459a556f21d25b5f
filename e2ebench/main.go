// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload as a closed loop of back-to-back sweeps through the
// public entry points a user calls — Campaign.RunSuite, the golden cache
// over goldenstore, and the farm coordinator with in-process workers on
// a loopback HTTP server — checks every sweep's output, and prints the
// metrics BENCHMARK.json names. README.md documents the workloads, the
// layer map and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the committed pins cover. heldOutSeed is the
// second seed every performance claim must also hold on; it is never
// used while tuning a change.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit, better string }

var e2eMetrics = []metricDef{
	{"scenarios_per_s", "1/s", "higher"},
	{"sweep_s_p50", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

var layerMetrics = []metricDef{
	{"grid.expand_ms", "ms", "lower"},
	{"spec.resolve_ms", "ms", "lower"},
	{"firmware.compile_ms", "ms", "lower"},
	{"testbed.run_ms.full.p50", "ms", "lower"},
	{"testbed.run_ms.full.tail", "ms", "lower"},
	{"testbed.run_ms.fingerprint.p50", "ms", "lower"},
	{"testbed.run_ms.fingerprint.tail", "ms", "lower"},
	{"testbed.run_ms.trojan.p50", "ms", "lower"},
	{"testbed.run_ms.trojan.tail", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"testbed.sim_s_per_host_s", "ratio", "higher"},
	{"capture.windows", "count", "lower"},
	{"trojan.run_ms_delta", "ms", "lower"},
	{"detect.compare_ms", "ms", "lower"},
	{"detect.replay_us_per_window", "us", "lower"},
	{"campaign.wall_ms", "ms", "lower"},
	{"campaign.efficiency", "ratio", "higher"},
	{"campaign.sims_per_scenario", "ratio", "lower"},
	{"goldencache.hits", "count", "higher"},
	{"goldencache.misses", "count", "lower"},
	{"goldencache.sims", "count", "lower"},
	{"goldenstore.hits", "count", "higher"},
	{"goldenstore.misses", "count", "lower"},
	{"goldenstore.get_us.p50", "us", "lower"},
	{"goldenstore.get_us.tail", "us", "lower"},
	{"goldenstore.get_absent_us", "us", "lower"},
	{"goldenstore.put_ms", "ms", "lower"},
	{"goldenstore.entry_kib", "KiB", "lower"},
	{"goldencache.warm_lookup_ms", "ms", "lower"},
	{"goldencodec.decode_ms", "ms", "lower"},
	{"sink.encode_report_ms", "ms", "lower"},
	{"sink.jsonl_emit_us", "us", "lower"},
	{"sink.stitch_ms", "ms", "lower"},
	{"farm.lease_ms.p50", "ms", "lower"},
	{"farm.lease_ms.tail", "ms", "lower"},
	{"farm.complete_ms.p50", "ms", "lower"},
	{"farm.complete_ms.tail", "ms", "lower"},
	{"farm.suite_fetch_ms.p50", "ms", "lower"},
	{"farm.suite_fetch_ms.tail", "ms", "lower"},
	{"farm.requests_per_scenario", "ratio", "lower"},
	{"farm.empty_lease_frac", "ratio", "lower"},
	{"farm.journal_kib", "KiB", "lower"},
	{"farm.overhead_ms_per_scenario", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; it replaces the spec files' baseSeed")
	seconds := fs.Float64("seconds", 10, "length of the closed loop of sweeps, in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 is the traced run, printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload %s, --seconds > 0 and --trace 0 or 1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	traced := *trace == 1

	b, err := newBench(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer b.close()
	o, err := b.measure(w, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	defs, values := e2eMetrics, o.e2e()
	if traced {
		probes, err := b.probe()
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		defs, values = layerMetrics, o.layers(b, probes)
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := b.tracer.writeJSONL(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
			return 1
		}
		printSelfTimes(stdout, b.tracer.snapshot())
		fmt.Fprintf(stdout, "spans: %s\n", path)
		fmt.Fprintf(stdout, "unreached by %s's own sweeps (values from the probes): %s\n", w.name, strings.Join(unreached(w), " "))
	}
	metrics, err := collect(defs, values)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	for _, p := range o.problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", p)
	}
	fmt.Fprintln(stdout, metadata(w.name, *seed))
	tp, tv := tail(o.walls)
	fmt.Fprintf(stdout, "sweeps: %d untraced, %d traced; sweep_s p50 %.4f, tail %.4f (p%d, 100 = max); setup median of %d\n",
		len(o.walls), len(o.traced), median(o.walls), tv, tp, len(o.setups))
	fmt.Fprintf(stdout, "failed_frac: %d of %d scenario rows = %g\n", o.failed, o.rows, failedFrac(o.failed, o.rows))
	if b.ref != nil {
		fmt.Fprintf(stdout, "tableii_report_sha256: %s\n", digest(b.ref))
		fmt.Fprintf(stdout, "tableii_clean_false_positives: %d of %d clean compares %v\n", len(b.falsePositives), tableIICleanCompares, b.falsePositives)
	}
	if b.fusedSum != "" {
		fmt.Fprintf(stdout, "fused_report_sha256: %s\n", b.fusedSum)
	}
	correct := len(o.problems) == 0 && o.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.rows, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// outcome is what one run measured.
type outcome struct {
	setups   []float64 // seconds per set-up repetition
	walls    []float64 // untraced sweeps' wall times, seconds
	traced   []float64 // traced sweeps' wall times, seconds
	campaign []float64 // traced sweeps' campaign times, ms
	loop     time.Duration
	rows     int
	failed   int
	problems []string
	last     sweep // the last traced sweep
}

// measure runs the workload's set-up, then the closed loop of sweeps for
// d. A traced run alternates untraced and traced sweeps, so the tracing
// overhead is measured on the same inputs in the same process.
func (b *bench) measure(w *workload, d time.Duration, traced bool) (*outcome, error) {
	o := &outcome{}
	for i := 0; i < w.setupReps; i++ {
		start := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	minSweeps := 1
	if traced {
		minSweeps = 2
	}
	start := time.Now()
	for i := 0; i < minSweeps || time.Since(start) < d; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = b.tracer
		}
		s := w.sweep(b, tr, "sweep-"+strconv.Itoa(i))
		o.rows += s.rows
		o.failed += s.failed
		o.problems = append(o.problems, s.problems...)
		if tr == nil {
			o.walls = append(o.walls, s.wall.Seconds())
			continue
		}
		o.traced = append(o.traced, s.wall.Seconds())
		o.campaign = append(o.campaign, float64(s.campaign.Nanoseconds())/1e6)
		o.last = s
	}
	o.loop = time.Since(start)
	return o, nil
}

// e2e computes the end-to-end metrics.
func (o *outcome) e2e() map[string]float64 {
	return map[string]float64{
		"scenarios_per_s": float64(o.rows-o.failed) / o.loop.Seconds(),
		"sweep_s_p50":     median(o.walls),
		"setup_s":         median(o.setups),
		"peak_rss_mib":    peakRSSMiB(),
	}
}

// layers merges the probes' timings with the figures the workload's own
// traced sweeps produced.
func (o *outcome) layers(b *bench, probes map[string]float64) map[string]float64 {
	m := probes
	for _, k := range []string{"goldencache.hits", "goldencache.misses", "goldencache.sims", "goldenstore.hits", "goldenstore.misses"} {
		m[k] = o.last.counts[k]
	}
	wall := median(o.campaign)
	m["campaign.wall_ms"] = wall
	m["campaign.sims_per_scenario"] = o.last.counts["campaign.sims"] / float64(o.last.rows)
	solo := 0.0
	for class, n := range o.last.mix {
		solo += float64(n) * b.solo[class]
	}
	m["campaign.efficiency"] = solo / (float64(b.workers) * wall)
	m["trace.overhead_frac"] = median(o.traced)/median(o.walls) - 1
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs every declared metric with its value; a missing, extra
// or non-finite value is an error, so the printed names are exactly the
// declared ones.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		out[d.name] = metric{v, d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for k := range values {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// unreached names the per-layer metrics the workload's own sweeps do not
// exercise.
func unreached(w *workload) []string {
	var out []string
	for _, d := range layerMetrics {
		reached := false
		for _, p := range w.reaches {
			reached = reached || strings.HasPrefix(d.name, p)
		}
		if !reached {
			out = append(out, d.name)
		}
	}
	return out
}

func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "self_ms %s %.3f\n", n, float64(self[n].Nanoseconds())/1e6)
	}
}

// metadata describes the machine and build a result came from.
func metadata(workload string, seed uint64) string {
	return fmt.Sprintf("meta: workload=%s seed=%d held_out_seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s",
		workload, seed, heldOutSeed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the build stamped, when built inside a git
// checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
