package farm

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"offramps"
)

// FuzzFarmHandlers feeds a coordinator's HTTP handlers fuzzed request
// bodies in fuzzed order. A script is one request per line, an op and
// its raw body: "lease BODY", "beat BODY", "complete BODY", "fail BODY",
// or "tick" (the clock passes one TTL). The contract: no request
// panics, the state machine's invariants hold after every request (no
// scenario has two live leases; the per-state counts sum to the total),
// and an honest worker can still settle the sweep afterwards — damage
// costs a re-run or a quarantine, never a hang.
func FuzzFarmHandlers(f *testing.F) {
	spec := leaseSuite("a", "b")
	row := func(name string, seed uint64) string {
		return string(jsonlRow(f, spec.Name, offramps.ScenarioResult{Name: name, Seed: seed, Result: &offramps.Result{Completed: true}}))
	}
	script := func(lines ...string) string { return strings.Join(lines, "\n") }
	// A completion carrying another scenario's live token must not
	// orphan that scenario.
	f.Add(script(
		`lease {"worker":"w1"}`,
		`lease {"worker":"w2"}`,
		fmt.Sprintf(`complete {"token":"L2","scenario":"a","row":%s}`, row("a", 1)),
		`beat {"token":"L2"}`,
		"tick",
		`lease {"worker":"w3"}`,
	))
	// Rows the coordinator always rejects (a wrong effective seed) must
	// strike the live lease through the worker's fail report.
	f.Add(script(
		`lease {"worker":"w1"}`,
		fmt.Sprintf(`complete {"token":"L1","scenario":"a","row":%s}`, row("a", 99)),
		`fail {"token":"L1","scenario":"a","error":"rejected"}`,
		`lease {"worker":"w1"}`,
		`lease {"worker":"w1"}`,
		fmt.Sprintf(`complete {"token":"L3","scenario":"a","row":%s}`, row("a", 99)),
		`fail {"token":"L3","scenario":"a","error":"rejected"}`,
	))
	f.Add(script(
		`lease {"worker":"w1"}`,
		fmt.Sprintf(`complete {"token":"L1","scenario":"a","row":%s,"compares":[%s]}`, row("a", 1), row("b", 1)),
		fmt.Sprintf(`complete {"token":"L1","scenario":"b","row":%s}`, row("a", 1)),
		`fail {"token":"","scenario":"zzz"}`,
		`beat {"token":"L1"}`,
		`lease garbage`,
		`complete {"scenario":"a","row":null}`,
	))
	f.Add("tick\ntick\nlease {}\nlease {}\nlease {}")

	paths := map[string]string{"lease": PathLease, "beat": PathHeartbeat, "complete": PathComplete, "fail": PathFail}
	honest := syntheticRows(f, spec)
	f.Fuzz(func(t *testing.T, s string) {
		h := newLeaseHarness(t, spec, Config{TTL: time.Minute, MaxStrikes: 2}, honest)
		defer h.co.Close()
		for _, line := range strings.Split(s, "\n") {
			op, body, _ := strings.Cut(line, " ")
			if op == "tick" {
				h.clk.Advance(time.Minute + time.Millisecond)
				continue
			}
			path, ok := paths[op]
			if !ok {
				continue
			}
			resp, err := h.cl.http().Post(h.cl.url(path), "application/json", bytes.NewBufferString(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("%s answered %s", op, resp.Status)
			}
			h.note("%s %q: %s", op, body, resp.Status)
		}
		h.finish("", 16)
	})
}
