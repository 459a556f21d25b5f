#!/usr/bin/env bash
# bench.sh runs the key perf benchmarks (GoldenPrint and its eager-rig
# twin GoldenPrintEager, RelocationPrint, TrojanOverhead — a clean print
# and T2, T5 and T8 prints: T2's E filter keeps every extruding move on
# the event queue, T5's Z watch every Z move, and T8's EN dropouts none —
# TableII — the in-repo twin of the sweep_cold workload —
# Campaign, CampaignWide, MonitorObserve,
# StitchReport, the golden codec and golden store microbenchmarks, grid
# expansion, JSONL row encoding, G-code parsing, firmware.Compile on the
# test part and on Table II case 5, the progressive scheduler's set-up and
# rounds at 10^5 cells, plus the engine microbenchmarks) and writes their results to
# BENCH_<label>.json so the perf trajectory is tracked across PRs. The label defaults to the repo's commit count.
#
# Each benchmark runs `-count 5`; benchjson collapses the repetitions to
# per-metric medians with their min/max spread (the archived JSON notes
# "runs": 5), so one noisy run on a shared box cannot skew the trajectory.
# Each benchmark's own "runs" is its median iteration count, which for
# the `Nx` benchtimes used here is N: that field records the benchtime,
# and `benchjson -compare` prints "not comparable" for a benchmark two
# files ran at different counts.
#
# Usage: scripts/bench.sh [label] [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-list --count HEAD 2>/dev/null || echo dev)}"
benchtime="${2:-2x}"
out="BENCH_${label}.json"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run NONE \
  -bench 'BenchmarkGoldenPrint$|BenchmarkGoldenPrintEager$|BenchmarkRelocationPrint$|BenchmarkTrojanOverhead$|BenchmarkTableII$|BenchmarkCampaign$|BenchmarkCampaignWide$|BenchmarkMonitorObserve$|BenchmarkStitchReport$' \
  -benchtime "$benchtime" -count 5 . | tee "$tmp"
go test -run NONE -bench 'BenchmarkGoldenCodec$' -benchtime 50x -count 5 . | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkGridExpand$|BenchmarkJSONLEmit$' -benchtime 500x -count 5 . | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkParse$' -benchtime 500x -count 5 ./internal/gcode | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkCompile$' -benchtime 500x -count 5 ./internal/firmware | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkStoreGet$' -benchtime 500x -count 5 ./internal/goldenstore | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkStorePut$' -benchtime 50x -count 5 ./internal/goldenstore | tee -a "$tmp"
go test -run NONE -bench 'BenchmarkNew$|BenchmarkNextRound$' -benchtime 3x -count 5 ./internal/sched | tee -a "$tmp"
go test -run NONE \
  -bench 'BenchmarkEngineSchedule$|BenchmarkEngineScheduleRun$|BenchmarkEngineScheduleEdge$|BenchmarkEngineTicker$|BenchmarkEngineMixedHorizon$|BenchmarkEngineSparse$' \
  -benchtime 100x -count 5 ./internal/sim | tee -a "$tmp"

go run ./cmd/benchjson < "$tmp" > "$out"
echo "wrote $out"
