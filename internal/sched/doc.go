// Package sched is the progressive sweep scheduler: a prioritizing,
// budget-aware feeder that decides *which* scenarios of a grid sweep run
// and in what order, without knowing anything about how they run. It
// sits in front of Campaign.Run (offramps.RunSuiteProgressive) and the
// farm coordinator's lease queue (internal/farm with Config.Sched),
// borrowing the progressive paradigm of the entity-resolution
// literature — spend a fixed comparison budget where it flips
// decisions — for grid sweeps whose expensive unit is a simulated
// print.
//
// The input is an abstract Grid: cells addressed by integer coordinates
// on the swept (non-seed) axes, each holding its scenario names in seed
// order, plus the extra scenarios (goldens, controls) every sweep must
// run. A Grid with no cells, only extras, is a plain suite run in
// naive order. The root package derives this layout during GridSpec
// expansion and chooses it in SuiteSpec.Scheduler; sched deliberately
// does not import it, so the dependency points campaign → scheduler and
// never back. Cells are indexed by their coordinate read as a
// mixed-radix number over Dims, so New rejects a coordinate outside
// Dims.
//
// Execution proceeds in synchronous rounds (NextRound / Observe):
//
//   - Phase 1, coverage: round 1 deals every extra plus the first seed
//     of every cell, cells ordered by bit-reversed index — a
//     deterministic cell-diverse order that spreads early samples across
//     the grid instead of walking it row by row. Coverage is mandatory:
//     it is dealt even when it alone exceeds the scenario budget, so a
//     budgeted sweep still covers 100% of cells.
//   - Phase 2, refinement: a cell whose representative verdict (its
//     first executed seed's) differs from any axis-neighbour's known
//     verdict is a boundary cell; later rounds deal boundary cells'
//     remaining seeds before anyone else's, so the budget concentrates
//     where detector verdicts flip.
//   - Phase 3, early stop: a cell whose first K executed seeds agree on
//     a known verdict is retired — its remaining seeds become synthesized
//     "skipped (early-stop, K/K unanimous)" rows, keeping stitched
//     reports complete and auditable. Budget exhaustion retires every
//     remaining live seed the same way.
//
// Everything is deterministic for a fixed (grid, Config): rounds are
// computed only from verdicts already fed back, one seed per cell per
// round, so the round sequence — and therefore the executed-scenario
// set and the synthesized skips — never depends on worker count or
// completion order. That contract is what lets CI pin a budgeted sweep
// byte for byte.
package sched
