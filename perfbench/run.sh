#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through, e.g.
#
#   bash perfbench/run.sh --workload fig7-batch --seed 1 --seconds 10 --trace 0
#
# Build caches and the binary live under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
cd "$root/perfbench"
go build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
