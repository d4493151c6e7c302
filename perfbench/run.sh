#!/usr/bin/env bash
# Builds the gateway benchmark from the checkout it is run in and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload tunnel_udp --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files and tool configuration
# all live under .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
