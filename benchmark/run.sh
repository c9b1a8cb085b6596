#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything a build or a run writes
# stays inside the checkout: the Go caches under .bench_build/, results
# under benchmark/out/. Run from the root of the repository:
#
#   bash benchmark/run.sh --workload head-warm --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
