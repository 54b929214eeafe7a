#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from and runs it with the arguments given. Go's caches and
# config live there too and the toolchain is pinned to the local one,
# so nothing is read or written outside the checkout and its GOROOT.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/weakkeys-bench" .
exec "$out/weakkeys-bench" "$@"
