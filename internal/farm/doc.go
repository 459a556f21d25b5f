// Package farm is the distributed campaign service: a small HTTP
// coordinator owning a work queue of scenario names, and stateless
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
// run. Leases expire on missed heartbeats and return to the queue;
// duplicate completions (an expired lease finishing anyway) are
// deterministic repeats and are dropped, first completion wins.
//
// Failure handling is graceful degradation: transport faults retry
// under jittered backoff, a scenario failed or abandoned by MaxStrikes
// distinct leases is quarantined (parked, surfaced in status, reported
// as an error row) instead of livelocking the sweep, and the journal is
// append-only with torn-tail-tolerant resume and atomic compaction
// (DESIGN.md §10–§11).
//
// The coordinator always feeds its lease queue from the progressive
// scheduler (internal/sched). Without Config.Progressive it schedules
// offramps.PlainLayout, one round of every scenario in suite order.
// With it, scenarios are dealt in rounds — one seed per grid cell
// first, then refinement around detection-boundary cells — and
// scenarios the scheduler retires are journaled as synthesized
// "skipped (...)" rows. The queue is reordered, never re-keyed, so
// leases, journals, resume, quarantine, and stitching all work
// unchanged; a resumed progressive sweep must be restarted with the
// same Progressive settings it began with (DESIGN.md §14).
package farm
