#!/bin/sh
# Allocation regression guard for the end-to-end generation benchmarks
# (two-factor and chain) and the multicore sweep.
#
# Runs BenchmarkE2Generate1D, BenchmarkE2GenerateChain and
# BenchmarkThroughputSweep with -benchmem and compares allocs/op per sub-benchmark against the committed
# allocguard_baseline.txt. Fails when any sub-benchmark allocates more
# than ALLOW× the snapshot figure (default 1.2 — a 20% regression budget;
# allocs/op is deterministic enough that this never flakes while still
# catching a reintroduced per-block allocation, in the engine or the tail
# fold), and exits 2 when it compared nothing.
#
# Rows are joined on the benchmark name without the trailing
# -<GOMAXPROCS> the testing package appends on a box with more than one
# CPU, so a snapshot recorded on one machine guards a run on another; a
# sweep row for a GOMAXPROCS the other machine lacks has no counterpart
# and is skipped.
#
# The snapshot is the plain output of the very command below (cold-start
# allocations amortize differently at long benchtimes, so the baseline
# must be recorded in the guard's own 10x regime). Record one, with
# GUARDED as set below, by
#   go test -run '^$' -bench "$GUARDED" -benchmem -benchtime 10x . >allocguard_baseline.txt
#
# Usage:
#   scripts/allocguard.sh
#   SNAPSHOT=other.txt scripts/allocguard.sh
#   ALLOW=1.5 scripts/allocguard.sh
set -eu

cd "$(dirname "$0")/.."

SNAPSHOT="${SNAPSHOT:-allocguard_baseline.txt}"
ALLOW="${ALLOW:-1.2}"
GUARDED='BenchmarkE2Generate1D|BenchmarkE2GenerateChain|BenchmarkThroughputSweep'

if ! grep -E "^($GUARDED)" "$SNAPSHOT" 2>/dev/null | grep -q 'allocs/op'; then
    echo "allocguard: $SNAPSHOT has no guarded benchmark rows" >&2
    exit 2
fi
echo "allocguard: baseline $SNAPSHOT, budget ${ALLOW}x" >&2

CUR=$(mktemp)
trap 'rm -f "$CUR"' EXIT

# benchtime 10x keeps the guard fast; allocs/op does not depend on the
# iteration count once pools are warm.
go test -run '^$' -bench "$GUARDED" -benchmem -benchtime 10x . >"$CUR"

awk -v allow="$ALLOW" '
/allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) if ($(i) == "allocs/op") a[FILENAME, name] = $(i - 1)
    if (FILENAME == ARGV[1] && !(name in seen)) { order[++n_] = name; seen[name] = 1 }
}
END {
    bad = 0
    for (i = 1; i <= n_; i++) {
        name = order[i]
        o = a[ARGV[1], name]; n = a[ARGV[2], name]
        if (o == "" || n == "") continue
        compared++
        status = "ok"
        if (n > o * allow) { status = "FAIL"; bad = 1 }
        printf "%-40s snapshot %6d  current %6d  budget %6.0f  %s\n", name, o, n, o * allow, status
    }
    if (compared == 0) { print "allocguard: no comparable benchmarks — the guard compared nothing" > "/dev/stderr"; exit 2 }
    exit bad
}' "$SNAPSHOT" "$CUR"
