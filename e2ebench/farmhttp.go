package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"offramps/internal/farm"
)

// httpStats accumulates the farm protocol's round trips over the traced
// farm sweeps of a run.
type httpStats struct {
	mu        sync.Mutex
	ms        map[string][]float64 // round-trip times by endpoint path
	requests  int
	leases    int
	waits     int // lease replies telling the worker to poll again
	scenarios int
	journal   []float64 // journal size per sweep, KiB
}

func newHTTPStats() *httpStats { return &httpStats{ms: make(map[string][]float64)} }

func (h *httpStats) addSweep(scenarios int, journalKiB float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.scenarios += scenarios
	h.journal = append(h.journal, journalKiB)
}

// metrics adds the farm's per-layer metrics to m.
func (h *httpStats) metrics(m map[string]float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for path, name := range map[string]string{
		farm.PathLease:    "farm.lease_ms",
		farm.PathComplete: "farm.complete_ms",
		farm.PathSuite:    "farm.suite_fetch_ms",
	} {
		m[name+".p50"] = median(h.ms[path])
		_, m[name+".tail"] = tail(h.ms[path])
	}
	if h.scenarios > 0 {
		m["farm.requests_per_scenario"] = float64(h.requests) / float64(h.scenarios)
	}
	if h.leases > 0 {
		m["farm.empty_lease_frac"] = float64(h.waits) / float64(h.leases)
	}
	m["farm.journal_kib"] = median(h.journal)
}

// timedTransport wraps the workers' HTTP transport in traced farm
// sweeps: each round trip, body included, becomes a span under the
// sweep, traced by the scenario it leases or completes.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	parent int
	stats  *httpStats
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	id := t.tr.begin(t.parent, "farm", "farm"+path)
	if path == farm.PathComplete && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var c farm.CompleteRequest
			if json.NewDecoder(body).Decode(&c) == nil {
				t.tr.retrace(id, c.Scenario)
			}
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	d := time.Since(start)
	t.tr.end(id)
	if err != nil {
		return nil, err
	}

	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	t.stats.requests++
	t.stats.ms[path] = append(t.stats.ms[path], float64(d.Nanoseconds())/1e6)
	if path == farm.PathLease {
		t.stats.leases++
		var reply farm.LeaseReply
		if json.Unmarshal(body, &reply) == nil {
			if reply.Status == farm.StatusWait {
				t.stats.waits++
			}
			if reply.Scenario != "" {
				t.tr.retrace(id, reply.Scenario)
			}
		}
	}
	return resp, nil
}
