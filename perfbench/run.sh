#!/usr/bin/env bash
# Builds the benchmark against the simulator source tree it sits in, then
# runs it with the given arguments. Run it from the root of that tree:
#
#   bash perfbench/run.sh --workload open-mail --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache, and the traced runs' span files all stay
# under .bench_build in the root, so nothing outside the tree is written.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
