#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it, keeping
# everything it writes (Go's build cache included) under .bench_build/ in
# the checkout. Arguments go to the benchmark: see bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" -out "$build" "$@"
