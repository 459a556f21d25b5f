#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload sweep_warm --seed 1 --seconds 10 --trace 0
#
# The benchmark is a Go module of its own that imports the repository's
# module from the parent directory. The binary, the Go build cache and
# every file a run writes stay under .bench_build/ in the root.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
