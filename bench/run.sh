#!/usr/bin/env bash
# Builds the benchmark and runs one workload; the arguments are those of
# `bench run` (--workload W --seed N --seconds S --trace 0|1). The build
# cache and the binary live in .bench_build/ under the current directory,
# which must be the repository root, so nothing outside it is written.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" run "$@"
