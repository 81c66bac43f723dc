#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload hpcg --seed 1 --seconds 20 --trace 0
#
# The build cache, the Go toolchain's own state, the binary and every run's
# output stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
