package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestTailRule pins the percentile rule: the highest whole percentile
// with at least ten samples beyond it, or the maximum below twenty
// samples.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n, p int
		v    float64
	}{
		{0, 0, 0},
		{1, 100, 1},
		{19, 100, 19},
		{20, 50, 10},
		{100, 90, 90},
		{290, 96, 279},
		{1000, 99, 990},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: tail must sort
		}
		p, v := tail(xs)
		if p != c.p || v != c.v {
			t.Errorf("n=%d: tail = p%d %v, want p%d %v", c.n, p, v, c.p, c.v)
		}
		if c.n > 0 && c.p < 100 {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%d", c.n, beyond, p)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "http", Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "http", Start: 90, End: 120}, // outlives its parent
		{ID: 5, Parent: 2, Name: "decode", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"sweep":  100 - 40 - 10, // children cover [10,50] and [90,100]
		"http":   (20 - 10) + 30 + 30,
		"decode": 10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x", "y")
	tr.end(id)
	tr.retrace(id, "z")
	if ms, err := tr.timed(0, "x", "y", func() error { return nil }); err != nil || ms < 0 {
		t.Fatalf("timed on a nil tracer: %v %v", ms, err)
	}
}

func TestFailedFracBase(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 145, 0},
		{29, 58, 0.5},
		{0, 0, 1},
	} {
		if got := failedFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestCollectPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "count", "higher"}}
	if m, err := collect(defs, map[string]float64{"a": 1, "b": 2}); err != nil || len(m) != 2 || m["a"].Unit != "ms" {
		t.Fatalf("collect = %v, %v", m, err)
	}
	for _, bad := range []map[string]float64{
		{"a": 1},
		{"a": 1, "b": 2, "c": 3},
		{"a": 1, "b": math.NaN()},
	} {
		if _, err := collect(defs, bad); err == nil {
			t.Errorf("collect(%v) accepted", bad)
		}
	}
}

// TestNamesMatchBenchmarkJSON holds the workload and metric names the
// command prints (collect prints exactly the declared ones) to
// BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(workloadNames(), " "), strings.Join(names, " "); got != want {
		t.Errorf("workloads %q, BENCHMARK.json has %q", got, want)
	}
	for _, c := range []struct {
		kind string
		code []metricDef
		file []def
	}{{"end_to_end", e2eMetrics, doc.EndToEnd}, {"per_layer", layerMetrics, doc.PerLayer}} {
		if len(c.code) != len(c.file) {
			t.Errorf("%s: %d metrics declared in code, %d in BENCHMARK.json", c.kind, len(c.code), len(c.file))
			continue
		}
		for i, d := range c.code {
			if f := c.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", c.kind, i, d, f)
			}
		}
	}
}

// TestReachPrefixesNameMetrics keeps each workload's reach list in step
// with the metric names, so a renamed metric cannot silently turn
// unreached.
func TestReachPrefixesNameMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, p := range w.reaches {
			found := false
			for _, d := range layerMetrics {
				found = found || strings.HasPrefix(d.name, p)
			}
			if !found {
				t.Errorf("%s reaches %q, which prefixes no per-layer metric", w.name, p)
			}
		}
	}
}
