#!/usr/bin/env bash
# chaos.sh — process-level crash sweep over the graph cache.
#
# Kills agcheck with a real os.Exit at mutating cache operation 1, 2, 3, ...
# (via OPENTLA_CACHE_CRASH_AT, see cache.Flags and iofs.Crash), recovers each
# crashed cache with a plain rerun on the same -cache-dir, and requires:
#
#   - the recovery run reproduces the reference verdict (exit 0);
#   - every .snap file is byte-identical to an uninterrupted run's (the
#     encoding is deterministic, so equal files == identical graphs);
#   - no torn temp files or quarantined entries survive recovery;
#   - agcachectl fsck finds nothing.
#
# The sweep is self-sizing: it stops at the first op index past the
# workload's last write (the crashed run exits with the verdict code instead
# of iofs.CrashExitCode = 7). The in-process twin of this sweep is
# TestCrashAtEveryWriteOp in internal/cache; the op counter is defined
# identically on both sides, so a crash point found here names the same
# operation there.
#
# Usage:
#   scripts/chaos.sh                     # defaults: -model queues -n 1 -k 2
#   MODEL=queues N=1 K=2 scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

MODEL="${MODEL:-queues}"
N="${N:-1}"
K="${K:-2}"
MAX_OPS="${MAX_OPS:-200}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/agcheck" ./cmd/agcheck
go build -o "$tmp/agcachectl" ./cmd/agcachectl

ref="$tmp/ref"
"$tmp/agcheck" -model "$MODEL" -n "$N" -k "$K" -cache-dir "$ref" >/dev/null
echo "chaos: reference run complete ($(ls "$ref"/*.snap | wc -l) snapshots)"

# verify_dir asserts the recovered cache is indistinguishable from the
# reference: same snapshot set, byte for byte, and no crash debris.
verify_dir() {
    local dir="$1"
    local f
    for f in "$ref"/*.snap; do
        if ! cmp -s "$f" "$dir/$(basename "$f")"; then
            echo "chaos: FAIL: $(basename "$f") differs from the reference after recovery" >&2
            exit 1
        fi
    done
    local want got
    want="$(ls "$ref"/*.snap | wc -l)"
    got="$(ls "$dir"/*.snap | wc -l)"
    if [ "$want" != "$got" ]; then
        echo "chaos: FAIL: $got snapshots after recovery, reference has $want" >&2
        exit 1
    fi
    if ls "$dir"/*.tmp >/dev/null 2>&1; then
        echo "chaos: FAIL: orphaned temp files survive recovery" >&2
        exit 1
    fi
    if ls "$dir"/*.quarantined >/dev/null 2>&1; then
        echo "chaos: FAIL: quarantined entries after a pure crash (nothing should need quarantine)" >&2
        exit 1
    fi
    "$tmp/agcachectl" fsck -cache-dir "$dir" >/dev/null
}

at=1
while :; do
    if [ "$at" -gt "$MAX_OPS" ]; then
        echo "chaos: FAIL: sweep did not terminate within $MAX_OPS ops" >&2
        exit 1
    fi
    dir="$tmp/crash-$at"
    set +e
    OPENTLA_CACHE_CRASH_AT="$at" "$tmp/agcheck" -model "$MODEL" -n "$N" -k "$K" \
        -cache-dir "$dir" >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 7 ]; then
        # Past the workload's last write: the run completed untouched and
        # doubles as the sweep's own reference check.
        if [ "$code" -ne 0 ]; then
            echo "chaos: FAIL: clean run at op $at exited $code" >&2
            exit 1
        fi
        verify_dir "$dir"
        echo "chaos: PASS: swept $((at - 1)) crash points (workload performs $((at - 1)) mutating cache ops)"
        break
    fi
    # Recover: a plain rerun must converge to the reference.
    "$tmp/agcheck" -model "$MODEL" -n "$N" -k "$K" -cache-dir "$dir" >/dev/null
    verify_dir "$dir"
    echo "chaos: crash at op $at recovered"
    at=$((at + 1))
done
