#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build writes stays inside the checkout (.bench_build), so the first
# run compiles and later runs reuse the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/hesgx-benchmark" ./benchmark
exec "$build/hesgx-benchmark" "$@"
