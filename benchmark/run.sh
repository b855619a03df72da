#!/bin/sh
# Entry point for the benchmark driver (BENCHMARK.json "command"): builds
# the harness from source and runs it, keeping every file the build and
# the run write — Go's build cache and temporary directory included —
# under .bench_build/ in the checkout. An exported GOCACHE is respected.
#
#   sh benchmark/run.sh --workload map-dp --seed 1 --seconds 10 --trace 0
#
# For work on the benchmark itself, `go run ./benchmark` does the same
# with the user's own build cache.
set -e
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local
go build -o "$root/.bench_build/benchmark" ./benchmark
exec "$root/.bench_build/benchmark" "$@"
