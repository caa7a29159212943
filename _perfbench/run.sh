#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _perfbench/run.sh --workload fleet-sweep --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, Go's config and telemetry, binary, temp files,
# checkpoint directories) stays under .bench_build in the current
# directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
