// Package farm is the distributed campaign service: a small HTTP
// coordinator owning one record per scenario name, and stateless
// workers that lease scenarios, run them through the normal
// campaign/testbed path, and stream the resulting rows back.
//
// The design leans entirely on the determinism the rest of the stack
// already guarantees. A unit of work is a scenario *name*; the worker
// recovers everything else (the sub-suite with helper golden runs) from
// the suite spec via SuiteSpec.Subset, so a lease is a few bytes, not a
// payload. Results travel as the same JSONL rows `suite -jsonl` writes,
// the coordinator journals them verbatim, and the final report is
// stitched from raw rows — byte-identical to an uninterrupted local
// run. Leases expire on missed heartbeats and their scenarios are dealt
// again; duplicate completions (an expired lease finishing anyway) are
// deterministic repeats and are dropped, first completion wins.
//
// Every scenario moves through one state machine — held, pending,
// leased, done, quarantined — under the coordinator's one lock; the
// transition table is documented on the coordinator's state type. A
// scenario is done only once its rows are validated and journaled, so
// a completion the coordinator cannot record leaves the lease live,
// and the worker's fail report strikes it.
//
// Failure handling is graceful degradation: transport faults retry
// under jittered backoff, a scenario failed or abandoned by MaxStrikes
// distinct leases is quarantined (parked, surfaced in status, reported
// as an error row) instead of livelocking the sweep, and the journal is
// append-only with torn-tail-tolerant resume and atomic compaction
// (DESIGN.md §10–§11).
//
// The coordinator always deals scenarios from the progressive scheduler
// (internal/sched), built by offramps.SuiteSpec.Scheduler(Config.Sched).
// With the zero Config.Sched it deals one round of every scenario in
// suite order. With a budget or early stop on a grid suite, scenarios
// are dealt in rounds — one seed per grid cell first, then refinement
// around detection-boundary cells — and scenarios the scheduler retires
// are journaled as synthesized "skipped (...)" rows. Scenarios are
// reordered, never re-keyed, so leases, journals, resume, quarantine,
// and stitching all work unchanged; a resumed progressive sweep must be
// restarted with the same Config.Sched it began with (DESIGN.md §14).
package farm
