#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload mm_full --seed 7 --seconds 10 --trace 0
#
# It builds the benchmark from source into .bench_build/ and runs it.
# The Go build cache, GOPATH and the toolchain's config directory are
# pointed into .bench_build/ too, so nothing is read or written outside
# the checkout. Without the program (a directory holding only
# BENCHMARK.json and benchmark/) it fails before starting any process.
#
# Go telemetry is switched off in that config directory first: with the
# default mode the first go command in a fresh config directory starts
# a detached child of its own that outlives it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "benchmark/run.sh: no go.mod and internal/core here; run from the root of a checkout" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
