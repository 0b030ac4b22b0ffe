#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash servebench/run.sh --workload hot-reads --seed 1 --seconds 25 --trace 0
#
# Every build artifact, the Go build cache, the go command's own
# configuration and telemetry files, and the benchmark's scratch files
# (WAL directories, span dumps) stay under .bench_build in the current
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/servebench" && go build -trimpath -o "$out/servebench" .) >&2
exec "$out/servebench" -root "$root" "$@"
