#!/usr/bin/env bash
# Builds the wfperf benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash wfperf/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, telemetry) and the traced runs' span files go under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/wfperf" && go build -o "$out/wfperf" .)
exec "$out/wfperf" -out "$out" "$@"
