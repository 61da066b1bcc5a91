#!/usr/bin/env bash
# bench.sh — run the PR 7 benchmark and emit BENCH_PR7.json.
#
# The Fig. 9 open-queue theorem (N=1, K=3 by default) is measured through
# agcheck's machine-readable -report run reports — the same artifact CI
# validates — at 1 worker and at a parallel worker pool (the parallel
# section records NumCPU and flags cpu-limited machines); the reduction
# section reruns the theorem with -reduce (sym by default) and reports
# state/transition/wall ratios plus the report's reduction counters; and
# the recorder-on vs recorder-off overhead comparison backs the
# "observability costs < 3%" contract. Prior PRs' numbers are embedded in
# the trajectory section of the output.
#
# Usage:
#   scripts/bench.sh                 # defaults: N=1 K=3 workers=4 -> BENCH_PR7.json
#   scripts/bench.sh -n 1 -k 2 -workers 2 -out /tmp/bench.json
#
# Also runs the Go benchmark suite briefly (BenchmarkBuild_Parallel,
# BenchmarkFig9_Parallel) so regressions show up next to the JSON numbers;
# set BENCH_SKIP_GO=1 to skip that step.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/agcheck" ./cmd/agcheck

go run ./scripts/benchpr9 -agcheck "$tmp/agcheck" "$@"

if [ "${BENCH_SKIP_GO:-0}" != "1" ]; then
    echo
    echo "== go test -bench (short) =="
    go test -run '^$' -bench 'Build_Parallel|Fig9_Parallel' -benchtime 1x .
fi
