package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"offramps"
	"offramps/internal/farm/faults"
)

// errLeaseLost marks a run abandoned because the coordinator reported
// the lease gone — someone else owns the scenario now, so the worker
// just moves on.
var errLeaseLost = errors.New("farm: lease lost")

// errScenarioFailed marks a lease released through the fail endpoint:
// the worker moves on, but the scenario did not complete and must not
// count toward Max or the completion total.
var errScenarioFailed = errors.New("farm: scenario failed")

// HeartbeatInterval is the worker's heartbeat cadence for a lease TTL:
// TTL/3, clamped into [50ms, TTL/2]. The upper clamp matters — the old
// max(TTL/3, 1s) floor meant a TTL under ~1.5s heartbeat *slower* than
// half the window, so a worker could lose a perfectly live lease to its
// own timer. Non-positive TTLs (a coordinator that sent none) fall back
// to 1s.
func HeartbeatInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return time.Second
	}
	iv := ttl / 3
	if iv < 50*time.Millisecond {
		iv = 50 * time.Millisecond
	}
	if iv > ttl/2 {
		iv = ttl / 2
	}
	return iv
}

// Worker is the stateless side of the farm: fetch the suite once, then
// lease scenario names, recover each lease's sub-suite (owned scenario
// plus helper golden runs) via SuiteSpec.Subset, run it through the
// ordinary campaign path, and stream the rows back. All state a worker
// accumulates is its golden cache — kill it at any point and the lease
// expiry returns its scenario to the queue.
//
// Transport failures retry under capped exponential backoff with full
// jitter (Backoff); a scenario the worker cannot run is reported via
// the fail endpoint (a strike toward quarantine) instead of killing the
// worker, so one poison scenario cannot take the fleet down with it.
type Worker struct {
	// Client reaches the coordinator.
	Client *Client
	// Name labels this worker in lease requests (display only).
	Name string
	// Dir resolves the suite's relative program paths (usually the
	// directory the coordinator loaded the spec from).
	Dir string
	// Cache is the shared golden cache (nil = a fresh one), so helper
	// goldens simulate once per worker, not once per lease.
	Cache *offramps.GoldenCache
	// Poll is the wait between lease polls while the queue is
	// momentarily empty (0 = 500ms).
	Poll time.Duration
	// Backoff shapes transport-failure retries (zero = defaults:
	// 100ms base, 5s cap, 10 attempts).
	Backoff faults.Backoff
	// Max stops the worker after completing this many scenarios (0 =
	// run until the sweep is done). Useful for drain tests.
	Max int
	// Clock is the time source (nil = faults.Wall{}); injectable so
	// chaos runs are reproducible.
	Clock faults.Clock
	// Seed fixes the retry-jitter stream (0 = derived from Name).
	Seed uint64
	// Log receives progress lines (nil = discard).
	Log io.Writer

	rng *rand.Rand
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

func (w *Worker) clock() faults.Clock {
	if w.Clock != nil {
		return w.Clock
	}
	return faults.Wall{}
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "worker %s: %s\n", w.Name, fmt.Sprintf(format, args...))
	}
}

// retry runs op under the worker's backoff policy: up to attempts()
// tries, sleeping a full-jitter backoff between them. The last error
// wins; a context cancellation surfaces immediately.
func (w *Worker) retry(ctx context.Context, what string, op func(context.Context) error) error {
	max := w.Backoff.MaxAttempts()
	for attempt := 0; ; attempt++ {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt+1 >= max {
			return fmt.Errorf("%s (after %d attempts): %w", what, max, err)
		}
		delay := w.Backoff.Delay(attempt, w.rng)
		w.logf("%s: %v (retry %d/%d in %v)", what, err, attempt+1, max-1, delay.Round(time.Millisecond))
		if serr := w.clock().Sleep(ctx, delay); serr != nil {
			return serr
		}
	}
}

// Run executes the worker loop until the sweep is done or draining, Max
// scenarios have completed, or ctx is cancelled. It returns the number
// of scenarios this worker completed.
func (w *Worker) Run(ctx context.Context) (int, error) {
	cache := w.Cache
	if cache == nil {
		cache = offramps.NewGoldenCache()
	}
	if w.rng == nil {
		seed := w.Seed
		if seed == 0 {
			seed = faults.SeedFromString(w.Name)
		}
		w.rng = faults.NewRand(seed)
	}

	// Fetch *and parse* under one retry umbrella: a truncated or garbled
	// body is as retryable as a refused connection.
	var suite *offramps.SuiteSpec
	err := w.retry(ctx, "fetching suite", func(ctx context.Context) error {
		data, err := w.Client.FetchSuite(ctx)
		if err != nil {
			return err
		}
		s, err := offramps.ParseSuiteSpec(data, w.Dir)
		if err != nil {
			return fmt.Errorf("parsing suite: %w", err)
		}
		suite = s
		return nil
	})
	if err != nil {
		return 0, err
	}
	w.logf("joined sweep %q (%d scenarios)", suite.Name, len(suite.Scenarios))

	completed := 0
	for {
		if err := ctx.Err(); err != nil {
			return completed, err
		}
		var lease *LeaseReply
		err := w.retry(ctx, "leasing", func(ctx context.Context) error {
			l, err := w.Client.Lease(ctx, w.Name)
			if err == nil {
				lease = l
			}
			return err
		})
		if err != nil {
			return completed, err
		}
		switch lease.Status {
		case StatusDone:
			w.logf("sweep done after %d scenarios", completed)
			return completed, nil
		case StatusDrain:
			w.logf("coordinator draining; exiting after %d scenarios", completed)
			return completed, nil
		case StatusWait:
			if serr := w.clock().Sleep(ctx, w.poll()); serr != nil {
				return completed, serr
			}
			continue
		case StatusLease:
			err := w.runOne(ctx, suite, cache, lease)
			if errors.Is(err, errLeaseLost) {
				w.logf("lease on %q lost; moving on", lease.Scenario)
				continue
			}
			if errors.Is(err, errScenarioFailed) {
				continue
			}
			if err != nil {
				return completed, err
			}
			completed++
			if w.Max > 0 && completed >= w.Max {
				w.logf("reached max of %d scenarios", w.Max)
				return completed, nil
			}
		default:
			return completed, fmt.Errorf("lease: unknown status %q", lease.Status)
		}
	}
}

// fail reports a scenario this worker could not run — best-effort: the
// coordinator's lease expiry is the fallback strike if the report never
// lands.
func (w *Worker) fail(ctx context.Context, lease *LeaseReply, cause error) {
	w.logf("failing %q: %v", lease.Scenario, cause)
	err := w.retry(ctx, fmt.Sprintf("reporting failure of %q", lease.Scenario), func(ctx context.Context) error {
		status, err := w.Client.Fail(ctx, FailRequest{
			Token:    lease.Token,
			Scenario: lease.Scenario,
			Error:    cause.Error(),
		})
		if err == nil {
			w.logf("failure of %q recorded: %s", lease.Scenario, status)
		}
		return err
	})
	if err != nil {
		w.logf("failure report for %q never landed: %v (lease expiry will strike it)", lease.Scenario, err)
	}
}

// runOne runs a single leased scenario end to end: sub-suite, campaign,
// pick the leased row, encode it and its comparisons as JSONL,
// complete. A scenario that cannot run is reported as failed and does
// not error the worker.
func (w *Worker) runOne(ctx context.Context, suite *offramps.SuiteSpec, cache *offramps.GoldenCache, lease *LeaseReply) error {
	sub, err := suite.Subset(lease.Scenario)
	if err != nil {
		w.fail(ctx, lease, fmt.Errorf("lease %q: %w", lease.Scenario, err))
		return errScenarioFailed
	}

	// Heartbeat on the clamped cadence; a reported-gone lease cancels
	// the run so the worker abandons work someone else now owns.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost atomic.Bool
	hbDone := make(chan struct{})
	interval := HeartbeatInterval(time.Duration(lease.TTLMillis) * time.Millisecond)
	go func() {
		defer close(hbDone)
		for {
			if err := w.clock().Sleep(runCtx, interval); err != nil {
				return
			}
			ok, err := w.Client.Heartbeat(runCtx, lease.Token)
			if err == nil && !ok {
				lost.Store(true)
				cancel()
				return
			}
			// Transport errors are ignored: lease expiry on the
			// coordinator is the authority, and the completion path
			// below tolerates an expired lease anyway.
		}
	}()

	w.logf("running %q (%d scenario(s) incl. goldens)", lease.Scenario, len(sub.Scenarios))
	camp := offramps.Campaign{Cache: cache}
	rep, runErr := camp.RunSuite(runCtx, sub)
	cancel()
	<-hbDone
	// The sub-suite's other rows are helper goldens, reported by the
	// leases that own them; its comparisons are all the leased
	// scenario's.
	var row *offramps.ScenarioResult
	if runErr == nil {
		for i := range rep.Results {
			if rep.Results[i].Name == lease.Scenario {
				row = &rep.Results[i]
			}
		}
		if row == nil {
			runErr = fmt.Errorf("sub-suite report has no row for %q", lease.Scenario)
		}
	}
	if runErr != nil {
		if lost.Load() {
			return errLeaseLost
		}
		if ctx.Err() != nil {
			// The worker itself is being shut down, not the scenario
			// failing: surface the cancellation.
			return fmt.Errorf("running %q: %w", lease.Scenario, runErr)
		}
		w.fail(ctx, lease, fmt.Errorf("running %q: %w", lease.Scenario, runErr))
		return errScenarioFailed
	}

	req := CompleteRequest{Token: lease.Token, Scenario: lease.Scenario}
	var buf bytes.Buffer
	sink := offramps.NewJSONLSink(&buf)
	sink.Label = suite.Name
	for _, cmp := range rep.Comparisons {
		buf.Reset()
		if err := sink.EmitCompare(cmp); err != nil {
			w.fail(ctx, lease, fmt.Errorf("encoding %q: %w", lease.Scenario, err))
			return errScenarioFailed
		}
		req.Compares = append(req.Compares, append([]byte(nil), bytes.TrimRight(buf.Bytes(), "\n")...))
	}
	buf.Reset()
	if err := sink.Emit(*row); err != nil {
		w.fail(ctx, lease, fmt.Errorf("encoding %q: %w", lease.Scenario, err))
		return errScenarioFailed
	}
	req.Row = append([]byte(nil), bytes.TrimRight(buf.Bytes(), "\n")...)

	err = w.retry(ctx, fmt.Sprintf("completing %q", lease.Scenario), func(ctx context.Context) error {
		status, err := w.Client.Complete(ctx, req)
		if err == nil {
			w.logf("completed %q: %s", lease.Scenario, status)
		}
		return err
	})
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		// An undeliverable completion releases the lease with a strike
		// rather than killing the worker: if the whole coordinator is down
		// the next lease call will fail too, but a poison path that only
		// rejects this scenario's rows must not take the fleet with it.
		w.fail(ctx, lease, err)
		return errScenarioFailed
	}
	return nil
}
