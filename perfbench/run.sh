#!/usr/bin/env bash
# Builds the perfbench runner from this checkout's sources and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload discovery-static --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, daemon spools,
# span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
