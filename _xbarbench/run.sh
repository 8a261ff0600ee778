#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run
# it from the root of the checkout:
#
#   bash _xbarbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# The build cache, binary and span files live under .bench_build/, so
# the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/xbarbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/_xbarbench" && go build -buildvcs=false -o "$out/xbarbench" .)
exec "$out/xbarbench" "$@"
