// Command coordinator serves one resumable sweep to a fleet of
// stateless workers. It expands a suite or grid spec into a work queue
// of scenario names, hands out heartbeat-guarded leases over HTTP (see
// internal/farm), journals every completed row to a JSONL file, and —
// once every scenario is in — stitches the rows into a report
// byte-identical to an uninterrupted single-process `suite` run.
//
// Usage:
//
//	coordinator -json merged.json spec.json
//	coordinator -grid -journal sweep.jsonl -json merged.json grid_tableii.json
//	coordinator -addr 127.0.0.1:7333 -ttl 30s -strikes 3 -fsync 1 grid.json
//	coordinator -scenario-budget 14 -earlystop 2 grid_sweep.json
//
// -scenario-budget or -earlystop feeds the lease queue from the
// progressive scheduler (internal/sched) over the grid's cells: workers
// receive one round at a time — coverage first, then boundary-guided
// refinement — and scenarios the scheduler retires are journaled as
// synthesized "skipped (...)" rows, and the sweep ends with the
// scheduler's summary line. A plain suite has no cells, so it runs
// whole in one round, exactly as without them, with no summary. The queue is
// reordered, never re-keyed, so journals, resume, quarantine, and
// stitching work unchanged; a resumed progressive sweep must be
// restarted with the same -scenario-budget and -earlystop it began
// with.
//
// Kill it mid-sweep and start it again with the same -journal: it reads
// the journal back (tolerating the torn trailing line a crash leaves,
// and compacting the file if the crash left dead rows), re-queues only
// the missing scenarios, and the workers carry on. The journal is the
// same row format `suite -jsonl` writes, so `suite -merge` can also
// stitch it directly.
//
// SIGTERM/SIGINT drains instead of dying: no new leases are dealt
// (workers see "drain" and exit), in-flight scenarios get their
// heartbeats and completions honoured, then the journal is flushed and
// closed so the sweep resumes cleanly on the next start.
//
// A scenario failed or abandoned by -strikes distinct leases is
// quarantined: parked out of the queue, listed in /v1/status, and
// reported as an error row in the stitched report — graceful
// degradation instead of a livelocked sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"offramps"
	"offramps/internal/farm"
	"offramps/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coordinator", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "listen `address` (port 0 = pick a free port)")
		addrFile = fs.String("addr-file", "", "write the bound address to `file` once listening (for scripts that used port 0)")
		grid     = fs.Bool("grid", false, "treat the spec file as a parameter-grid sweep and expand it first (grid_*.json auto-detects)")
		seed     = fs.Uint64("seed", 0, "override the suite's base seed (0 = use the spec's)")
		ttl      = fs.Duration("ttl", 30*time.Second, "lease heartbeat window; a worker silent this long loses its scenario")
		strikes  = fs.Int("strikes", 3, "quarantine a scenario after this many failed/abandoned leases (0 = never)")
		journal  = fs.String("journal", "", "append completed rows to this JSONL `file` and resume from it on restart")
		fsync    = fs.Int("fsync", 1, "fsync the journal every `n` accepted completions (0 = leave flushing to the OS)")
		jsonOut  = fs.String("json", "", "write the final stitched report as JSON to `file` (\"-\" = stdout)")
		linger   = fs.Duration("linger", 2*time.Second, "keep serving this long after the sweep completes, so polling workers see \"done\" and exit")
		progress = fs.Bool("progress", false, "print a line per accepted completion")
		budget   = fs.Int("scenario-budget", 0, "progressive: target number of executed scenarios, coverage included (0 = unlimited)")
		early    = fs.Int("earlystop", 0, "progressive: retire a cell once its first `k` seeds agree on a verdict (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("want exactly one spec file, got %d", fs.NArg())
	}
	path := fs.Arg(0)

	spec, err := offramps.LoadSuiteOrGrid(path, *grid)
	if err != nil {
		return err
	}
	if *seed != 0 {
		spec.BaseSeed = *seed
	}

	cfg := farm.Config{
		TTL:        *ttl,
		Journal:    *journal,
		SyncEvery:  *fsync,
		MaxStrikes: *strikes,
		Sched:      sched.Config{Budget: *budget, EarlyStopK: *early},
	}
	co, err := farm.NewCoordinator(spec, cfg)
	if err != nil {
		return err
	}
	defer co.Close()
	if *progress {
		co.Progress = stdout
	}
	if n := co.Resumed(); n > 0 {
		fmt.Fprintf(stdout, "resumed %d of %d scenarios from %s\n", n, len(spec.Scenarios), *journal)
	}
	if n := co.Compacted(); n > 0 {
		fmt.Fprintf(stdout, "compacted %s: dropped %d dead row(s)\n", *journal, n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "suite %q: %d scenarios on http://%s\n", spec.Name, len(spec.Scenarios), ln.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("addr-file: %w", err)
		}
	}
	srv := &http.Server{Handler: co.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case <-co.Done():
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case <-sigCtx.Done():
		stop() // a second signal kills hard
		return drain(co, srv, *ttl, *journal, stdout)
	}
	// Workers poll; give their next lease request a chance to see "done"
	// before the listener goes away.
	time.Sleep(*linger)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)

	rep, err := co.Report()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sweep complete: %d scenarios, %d comparisons\n", len(rep.Results), len(rep.Comparisons))
	if line := co.SweepStats().Summary(); line != "" {
		fmt.Fprintln(stdout, line)
	}
	for _, q := range co.Quarantined() {
		fmt.Fprintf(stdout, "quarantined: %s (%d strikes; last: %s)\n", q.Scenario, q.Strikes, q.Reason)
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, stdout, rep); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if err := co.Close(); err != nil {
		return err
	}
	return rep.FirstError()
}

// drain is the SIGTERM path: stop dealing leases, let in-flight
// scenarios complete (bounded by one TTL — a worker silent that long
// has lost its lease anyway), then flush and close the journal. The
// sweep stays incomplete on purpose; the journal resumes it.
func drain(co *farm.Coordinator, srv *http.Server, ttl time.Duration, journal string, stdout io.Writer) error {
	fmt.Fprintln(stdout, "draining: no new leases; waiting for in-flight scenarios")
	co.Drain()
	deadline := time.Now().Add(ttl + time.Second)
	for {
		_, leased, _, _, _ := co.Counts()
		if leased == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	if err := co.Close(); err != nil {
		return err
	}
	_, leased, done, quarantined, total := co.Counts()
	fmt.Fprintf(stdout, "drained: %d/%d scenarios done (%d quarantined, %d still leased)\n", done, total, quarantined, leased)
	if journal != "" {
		fmt.Fprintf(stdout, "resume with the same -journal %s\n", journal)
	}
	return nil
}

// writeReport writes the {"suites":[...]} document `suite -json` writes,
// through the same encoder, so the bytes match a local run's exactly.
func writeReport(path string, stdout io.Writer, rep *offramps.RawSuiteReport) error {
	doc := offramps.RawReportDoc{Suites: []offramps.RawSuiteReport{*rep}}
	if path == "-" {
		return offramps.EncodeReport(stdout, doc)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := offramps.EncodeReport(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
