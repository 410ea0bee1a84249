#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source and
# runs it, keeping the Go build cache, temporary files and the binary under
# .bench_build/ in the checkout so nothing is read or written outside it.
# `go run ./bench` from the repository root does the same with Go's default
# cache locations.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOFLAGS="-buildvcs=false"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
