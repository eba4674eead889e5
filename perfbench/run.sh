#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload authority --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced runs' spans and CPU profiles all stay under .bench_build/ there.
# The build needs the simulator's own sources (the module one directory
# up); without them it fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
