#!/usr/bin/env bash
# Builds the benchmark harness and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain would write under $HOME (build cache,
# telemetry counters, temporary build directories) goes to .bench_build in
# the working directory instead, and no toolchain download is attempted.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
