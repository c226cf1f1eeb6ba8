#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the build and the runs write stays under
# .bench_build/ in the checkout: the Go build cache, the binary, the
# go command's config and telemetry, the per-run work dirs (removed
# when a run ends) and traced-run spans.
#
#   bash bench/run.sh --workload city-cold --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh compare DIR_A DIR_B
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" -repo "$root" "$@"
