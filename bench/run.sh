#!/usr/bin/env bash
# Contract entry point named by BENCHMARK.json: builds the benchmark
# (a Go module of its own) into the checkout's .bench_build directory
# and runs it with the driver's arguments. Everything the build writes
# (compiler cache, binaries, temporary store directories) stays inside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
