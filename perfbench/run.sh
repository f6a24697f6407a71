#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.jsonl new.jsonl
#
# Build outputs, the Go build cache and the run's databases stay under
# .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
