// Package offramps is a full-system software reproduction of "OFFRAMPS:
// An FPGA-based Intermediary for Analysis and Modification of Additive
// Manufacturing Control Systems" (DSN 2024).
//
// The physical OFFRAMPS is a PCB that places an FPGA as a machine-in-the-
// middle between an Arduino Mega running Marlin and a RAMPS 1.4 printer
// control board. This package assembles the simulated equivalent:
//
//	slicer ─► G-code ─► firmware twin ─► Arduino-side bus
//	                                         │
//	                                   OFFRAMPS board (FPGA MITM)
//	                                   · bypass / trojan / capture
//	                                         │
//	                                   RAMPS-side bus ─► drivers,
//	                                   heaters, endstops ─► printer plant
//	                                   (kinematics + thermodynamics +
//	                                    deposited part)
//
// A Testbed wires all of it together; Run executes a print end-to-end and
// returns the capture, the printed part's quality metrics, and the
// machine's thermal outcome. Run optionally attaches live streaming
// detectors (WithDetector) that can abort the print at the end of the
// capture window in which a trojan is suspected. Campaign fans many
// (program × trojan × seed × detector) scenarios across a worker pool
// with deterministic per-scenario seeding.
//
// Scenarios are data: a serializable ScenarioSpec (program ref, trojan
// spec, detector spec, tap placement, seed policy, budget) compiles into
// a runnable Scenario through the trojan/detector registries, and a
// SuiteSpec file bundles scenarios with post-run golden comparisons
// (cmd/suite executes them). The experiment entry points (TableI,
// TableII, Figure4, Drift, TapSides, SelfAttest) each run a suite
// through Campaign.RunSuite and render its report, regenerating the
// paper's evaluation; each loads its suite from a committed spec file
// under examples/specs, embedded in the package, and Overhead
// instruments two testbeds directly. The
// board's capture tap point is itself configuration
// (WithTapSide): the paper's Arduino-side tap, a RAMPS-side tap that can
// see board-injected trojans (§V-D), or both. Live detection is tap-
// addressable on top of that: WithDetectorAt binds a detector to a
// chosen tap, and the dual binding feeds attestation-style detectors
// synchronized pairs from both sides, so a single dual-tap print detects
// board-resident trojans with no golden reference (SelfAttest).
//
// Everything above the testbed is built for scale on one invariant:
// simulation is deterministic, so a scenario's result — and its
// serialized report row — is a pure function of its spec and seed.
// GridSpec expands compact axis sweeps into validated suites;
// FNV-1a-per-name sharding (suite -shard/-merge over -jsonl streams)
// and the distributed farm (internal/farm: HTTP lease queue, resumable
// JSONL journal) both fold rows first-copy-wins and stitch them
// (StitchReport) into reports byte-identical to an uninterrupted
// single-process run. Goldens are memoized in a layered
// repository — an in-process cache (GoldenCache) over a persistent
// content-addressed disk store (internal/goldenstore) — and huge grids
// run under the progressive scheduler (internal/sched, surfaced as
// RunSuiteProgressive and `suite -scenario-budget`): coverage first, then
// refinement around detection-boundary cells, with retired scenarios
// reported as synthesized "skipped (...)" rows and every executed row
// still byte-identical to the full run's. RunSuiteProgressive is the
// only suite executor: RunSuite runs it with the zero sched.Config,
// where every scenario is an extra and nothing is skipped. A suite
// expanded from a grid carries its layout, so no caller builds one.
//
// See README.md for a tour of the commands and DESIGN.md for the
// architecture, section by section.
package offramps
