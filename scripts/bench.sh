#!/usr/bin/env bash
# bench.sh runs the key perf benchmarks (GoldenPrint and its eager-rig
# twin GoldenPrintEager, Campaign, CampaignWide, MonitorObserve, plus
# the engine microbenchmarks) and writes their results to
# BENCH_<label>.json so the perf trajectory is tracked across PRs. The label defaults to the repo's commit count.
#
# Each benchmark runs `-count 5`; benchjson collapses the repetitions to
# per-metric medians with their min/max spread (the archived JSON notes
# "runs": 5), so one noisy run on a shared box cannot skew the trajectory.
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
  -bench 'BenchmarkGoldenPrint$|BenchmarkGoldenPrintEager$|BenchmarkCampaign$|BenchmarkCampaignWide$|BenchmarkMonitorObserve$' \
  -benchtime "$benchtime" -count 5 . | tee "$tmp"
go test -run NONE \
  -bench 'BenchmarkEngineSchedule$|BenchmarkEngineScheduleEdge$|BenchmarkEngineTicker$|BenchmarkEngineMixedHorizon$|BenchmarkEngineSparse$' \
  -benchtime 100x -count 5 ./internal/sim | tee -a "$tmp"

go run ./cmd/benchjson < "$tmp" > "$out"
echo "wrote $out"
