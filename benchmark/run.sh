#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs it.
# Every argument goes to the harness (see README.md); the driver calls
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and a spread report over N seeds is
#   bash benchmark/run.sh -repeat N
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every file the toolchain writes inside the checkout.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
cd "$root"
go build -C "$here" -o "$build/amber-benchmark" .
exec "$build/amber-benchmark" "$@"
