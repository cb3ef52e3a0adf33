#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload grid-sweep --seed 1 --seconds 30 --trace 0
#
# With no --workload it runs all four workloads, each in its own child
# process. The Go build cache, the binaries and every file a run writes
# stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
