#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark with everything
# the build writes (binaries, Go build cache) kept inside the checkout,
# under .bench_build/, then runs it with the driver's arguments:
#
#   bash benchmark/run.sh --workload serve-small --seed 1 --seconds 12 --trace 0
#
# The benchmark imports netupdate's internal packages through the parent
# module, so in a directory holding only BENCHMARK.json and benchmark/ the
# build fails and this script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/benchmark"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
