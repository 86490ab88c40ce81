#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload solve-large --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, data directories,
# span files) goes under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark/run.sh: run from the repository root (need go.mod and benchmark/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the tree too.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -root "$root" "$@"
