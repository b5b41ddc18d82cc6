#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# arguments given: the command of BENCHMARK.json. The build cache and the
# binary stay under .bench_build in the checkout, so nothing is read or
# written outside it; without the repository's go.mod the build fails and
# so does this script.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
