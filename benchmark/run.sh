#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments.  Run it from the repository root:
#
#   bash benchmark/run.sh --workload wire-online --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the go command's configuration
# (its telemetry counters included) stay under .bench_build/ too, so a
# run writes nothing outside the checkout and fetches nothing.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
