#!/usr/bin/env bash
# pins.sh pins the report bytes of every committed spec across commits.
# It builds cmd/suite and runs `suite -seed S -json` on each
# examples/specs/*.json and on e2ebench/specs/grid_detect_fused.json, at
# seeds 1 and 7, naming each report <spec>-seed<S>.json. Then it either
# checks those reports against ci/specs.sha256 (the default, as the CI
# `specs` job runs it) or rewrites that file from them.
#
# Check mode fails when a report's bytes differ from its pinned hash and
# when a committed spec has no line in ci/specs.sha256, so a new spec
# cannot go unpinned. Only a change that is meant to move report bytes
# should rewrite the file, and its commit should say why.
#
# Usage: scripts/pins.sh [check|write]
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
case "$mode" in
check | write) ;;
*)
  echo "usage: scripts/pins.sh [check|write]" >&2
  exit 2
  ;;
esac

pins="$PWD/ci/specs.sha256"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/suite" ./cmd/suite
reports=()
for spec in examples/specs/*.json e2ebench/specs/grid_detect_fused.json; do
  name="$(basename "$spec" .json)"
  for seed in 1 7; do
    report="$name-seed$seed.json"
    "$dir/suite" -seed "$seed" -json "$dir/$report" "$spec" > /dev/null
    reports+=("$report")
  done
done

if [ "$mode" = write ]; then
  (cd "$dir" && sha256sum "${reports[@]}") > "$pins"
  echo "wrote ${#reports[@]} pins to ci/specs.sha256"
  exit 0
fi

missing=0
for report in "${reports[@]}"; do
  if ! grep -q "  $report\$" "$pins"; then
    echo "ci/specs.sha256 has no line for $report" >&2
    missing=1
  fi
done
(cd "$dir" && sha256sum -c "$pins")
exit "$missing"
