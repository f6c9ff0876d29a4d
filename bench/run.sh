#!/usr/bin/env bash
# Builds the layered benchmark from the sources of this checkout and
# runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload steady-traffic --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, module and
# telemetry directories) stays under .bench_build/ at the checkout
# root, and the toolchain is pinned to the local one with the module
# proxy off, so the build never leaves the checkout or the machine.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
