#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's own source and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload scan_lowcard --seed 3 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its own
# configuration and telemetry counters) is kept under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. In a directory
# without the repository's go.mod the build fails and so does this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# A checkout need not be a git repository; stamp the commit when it is one.
go build -o "$build/skalla-benchmark" ./benchmark 2>/dev/null ||
	go build -buildvcs=false -o "$build/skalla-benchmark" ./benchmark
exec "$build/skalla-benchmark" "$@"
