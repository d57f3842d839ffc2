#!/usr/bin/env bash
# Builds fsdmbench from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload oltp_point --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# the benchmark measures the runtime's defaults
unset GOGC GOMEMLIMIT GOMAXPROCS

go build -C "$root/benchmark" -o "$build/fsdmbench" .
exec "$build/fsdmbench" "$@"
