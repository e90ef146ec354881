#!/bin/sh
# Cluster-mode smoke test: generate the same Kronecker product twice —
# once as a real 4-process TCP cluster on localhost, once in a single
# process — and fail unless the two stores hold the identical edge set.
# A second phase repeats the check for a k=3 power chain (A^{⊗3}) so the
# chain plan wire format and lazy tail fold get the same treatment.
#
# Usage:
#   scripts/cluster_local.sh             # 4 procs, 6 ranks, 1d, bundled factors
#   PROCS=3 RANKS=5 MODE=2d scripts/cluster_local.sh
#   A=mya.txt B=myb.txt scripts/cluster_local.sh
#
# Worker processes are started in the background; the head (process 0)
# runs in the foreground and supervises them, so the script's exit code
# is the cluster run's verdict. Everything lives under a temp directory
# that is removed on exit, workers included.
set -eu

cd "$(dirname "$0")/.."

PROCS="${PROCS:-4}"
RANKS="${RANKS:-6}"
MODE="${MODE:-1d}"
BASE_PORT="${BASE_PORT:-19750}"

WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

# Factor graphs: bundled defaults are non-regular and non-symmetric in
# size, so rank ownership, routing and the uneven rank/proc split all get
# exercised.
A="${A:-$WORK/A.txt}"
B="${B:-$WORK/B.txt}"
if [ ! -f "$A" ]; then
    printf '0 1\n1 2\n2 3\n3 0\n0 2\n4 0\n4 2\n' >"$A"
fi
if [ ! -f "$B" ]; then
    printf '0 1\n1 2\n2 0\n3 1\n' >"$B"
fi

echo "cluster_local: building krongen" >&2
go build -o "$WORK/krongen" ./cmd/krongen

PEERS=""
i=0
while [ "$i" -lt "$PROCS" ]; do
    PEERS="$PEERS${PEERS:+,}127.0.0.1:$((BASE_PORT + i))"
    i=$((i + 1))
done

echo "cluster_local: $PROCS procs, $RANKS ranks, mode $MODE, peers $PEERS" >&2

# Workers (procs 1..N-1) in the background, head in the foreground.
i=1
while [ "$i" -lt "$PROCS" ]; do
    "$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" \
        -store "$WORK/st-cluster" -cluster-peers "$PEERS" -cluster-self "$i" &
    PIDS="$PIDS $!"
    i=$((i + 1))
done
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" \
    -store "$WORK/st-cluster" -cluster-peers "$PEERS" -cluster-self 0 -stats

for pid in $PIDS; do
    wait "$pid" || { echo "cluster_local: worker pid $pid failed" >&2; exit 1; }
done
PIDS=""

echo "cluster_local: single-process reference run" >&2
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" -store "$WORK/st-single"

# Shard bytes may legitimately differ (edge arrival order over TCP is
# nondeterministic); the contract is the edge *set*, so compare the
# canonical sorted edge lists.
"$WORK/krongen" -dump-store "$WORK/st-cluster" | sort >"$WORK/cluster.txt"
"$WORK/krongen" -dump-store "$WORK/st-single" | sort >"$WORK/single.txt"
if ! diff -u "$WORK/single.txt" "$WORK/cluster.txt" >&2; then
    echo "cluster_local: FAIL — cluster store differs from single-process store" >&2
    exit 1
fi
EDGES=$(wc -l <"$WORK/cluster.txt" | tr -d ' ')
echo "cluster_local: OK — $EDGES edges identical across both stores" >&2

# Phase 2: a k=3 factor chain (A^{⊗3} via -power) across the same
# 4-process TCP cluster, against a single-process, single-rank reference. This
# exercises the chain plan/tile wire format and the lazy tail fold end
# to end — the k>2 path shares no shortcuts with the two-factor phase.
CHAIN_PORT=$((BASE_PORT + PROCS))
CPEERS=""
i=0
while [ "$i" -lt "$PROCS" ]; do
    CPEERS="$CPEERS${CPEERS:+,}127.0.0.1:$((CHAIN_PORT + i))"
    i=$((i + 1))
done

echo "cluster_local: phase 2 — k=3 power chain, $PROCS procs, peers $CPEERS" >&2
i=1
while [ "$i" -lt "$PROCS" ]; do
    "$WORK/krongen" -a "$A" -power 3 -mode "$MODE" -ranks "$RANKS" \
        -store "$WORK/st-chain-cluster" -cluster-peers "$CPEERS" -cluster-self "$i" &
    PIDS="$PIDS $!"
    i=$((i + 1))
done
"$WORK/krongen" -a "$A" -power 3 -mode "$MODE" -ranks "$RANKS" \
    -store "$WORK/st-chain-cluster" -cluster-peers "$CPEERS" -cluster-self 0 -stats

for pid in $PIDS; do
    wait "$pid" || { echo "cluster_local: chain worker pid $pid failed" >&2; exit 1; }
done
PIDS=""

echo "cluster_local: k=3 single-process, single-rank reference" >&2
"$WORK/krongen" -a "$A" -power 3 -mode 1d -ranks 1 -store "$WORK/st-chain-single"

"$WORK/krongen" -dump-store "$WORK/st-chain-cluster" | sort >"$WORK/chain-cluster.txt"
"$WORK/krongen" -dump-store "$WORK/st-chain-single" | sort >"$WORK/chain-single.txt"
if ! diff -u "$WORK/chain-single.txt" "$WORK/chain-cluster.txt" >&2; then
    echo "cluster_local: FAIL — k=3 chain cluster store differs from the single-rank store" >&2
    exit 1
fi
CEDGES=$(wc -l <"$WORK/chain-cluster.txt" | tr -d ' ')
echo "cluster_local: OK — $CEDGES k=3 chain edges identical across both stores" >&2

# Phase 3: cut-and-resume — the stream index end to end. The product's
# arc stream is dumped in three windowed pieces (-offset/-limit; the
# skipped prefixes are never generated) and the concatenation must be
# byte-identical to the whole stream. Then the middle window alone is
# generated by the TCP cluster into a store, and its edge set must equal
# exactly the whole stream's middle lines — a process-level resume.
echo "cluster_local: phase 3 — cut-and-resume windowed dumps" >&2
BIG=1000000000

"$WORK/krongen" -a "$A" -b "$B" -mode 1d -ranks 1 -offset 0 -limit "$BIG" -out "$WORK/whole-serial.txt"
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" -offset 0 -limit "$BIG" -out "$WORK/whole-mode.txt"
if [ "$MODE" = "1d" ]; then
    # Canonical-order law: the 1d stream equals the single-rank (serial)
    # enumeration for any rank count.
    if ! diff -u "$WORK/whole-serial.txt" "$WORK/whole-mode.txt" >&2; then
        echo "cluster_local: FAIL — 1d stream order differs from the single-rank order" >&2
        exit 1
    fi
fi
TOTAL=$(wc -l <"$WORK/whole-mode.txt" | tr -d ' ')
CUT1=$((TOTAL / 3))
CUT2=$((2 * TOTAL / 3))

"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" -offset 0 -limit "$CUT1" -out "$WORK/w1.txt"
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" -offset "$CUT1" -limit "$((CUT2 - CUT1))" -out "$WORK/w2.txt"
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" -offset "$CUT2" -limit "$BIG" -out "$WORK/w3.txt"
cat "$WORK/w1.txt" "$WORK/w2.txt" "$WORK/w3.txt" >"$WORK/resumed.txt"
if ! diff -u "$WORK/whole-mode.txt" "$WORK/resumed.txt" >&2; then
    echo "cluster_local: FAIL — concatenated windowed dumps differ from the whole stream" >&2
    exit 1
fi
echo "cluster_local: OK — 3 windowed dumps concatenate to all $TOTAL arcs" >&2

WIN_PORT=$((BASE_PORT + 2 * PROCS))
WPEERS=""
i=0
while [ "$i" -lt "$PROCS" ]; do
    WPEERS="$WPEERS${WPEERS:+,}127.0.0.1:$((WIN_PORT + i))"
    i=$((i + 1))
done
echo "cluster_local: phase 3 — cluster generates window [$CUT1,$CUT2) over TCP, peers $WPEERS" >&2
i=1
while [ "$i" -lt "$PROCS" ]; do
    "$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" \
        -offset "$CUT1" -limit "$((CUT2 - CUT1))" \
        -store "$WORK/st-window" -cluster-peers "$WPEERS" -cluster-self "$i" &
    PIDS="$PIDS $!"
    i=$((i + 1))
done
"$WORK/krongen" -a "$A" -b "$B" -mode "$MODE" -ranks "$RANKS" \
    -offset "$CUT1" -limit "$((CUT2 - CUT1))" \
    -store "$WORK/st-window" -cluster-peers "$WPEERS" -cluster-self 0 -stats

for pid in $PIDS; do
    wait "$pid" || { echo "cluster_local: window worker pid $pid failed" >&2; exit 1; }
done
PIDS=""

# The window is a directional arc slice, not a symmetric graph, so dump
# the store arc-for-arc (-dump-arcs) rather than as an undirected edge
# list.
"$WORK/krongen" -dump-store "$WORK/st-window" -dump-arcs | sort >"$WORK/win-cluster.txt"
sed -n "$((CUT1 + 1)),$((CUT2))p" "$WORK/whole-mode.txt" | sort >"$WORK/win-expect.txt"
if ! diff -u "$WORK/win-expect.txt" "$WORK/win-cluster.txt" >&2; then
    echo "cluster_local: FAIL — cluster window store differs from the stream's middle window" >&2
    exit 1
fi
echo "cluster_local: OK — cluster stored exactly the $((CUT2 - CUT1))-arc middle window" >&2

# Phase 4: survive the head. The k=3 chain runs again with a durable run
# ledger, but the head is armed (KRONLAB_TCP_KILL_FRAMES, a count of
# blocks handed to its store sink) to SIGKILL itself mid-run; workers park
# and re-dial under the -head-retries budget while a fresh head process
# replays the ledger, bumps the head
# generation, and finishes the run. The recovered store must still match
# the single-rank reference edge-for-edge — exactly-once across head
# generations, proven at the process level.
KILL_PORT=$((BASE_PORT + 3 * PROCS))
KPEERS=""
i=0
while [ "$i" -lt "$PROCS" ]; do
    KPEERS="$KPEERS${KPEERS:+,}127.0.0.1:$((KILL_PORT + i))"
    i=$((i + 1))
done
LEDGER="$WORK/head.ledger"

echo "cluster_local: phase 4 — head kill+respawn with run ledger, peers $KPEERS" >&2
i=1
while [ "$i" -lt "$PROCS" ]; do
    "$WORK/krongen" -a "$A" -power 3 -mode "$MODE" -ranks "$RANKS" \
        -store "$WORK/st-headkill" -cluster-peers "$KPEERS" -cluster-self "$i" \
        -head-retries 20 &
    PIDS="$PIDS $!"
    i=$((i + 1))
done

# First head incarnation: armed to SIGKILL itself inside the 4th block its
# store sink is handed. It MUST die of that SIGKILL (status 137) — a clean
# exit means the kill schedule never fired and the phase proved nothing,
# and any other death (a panic, a refused run) is a failure of its own.
STATUS=0
KRONLAB_TCP_KILL_FRAMES=4 "$WORK/krongen" -a "$A" -power 3 -mode "$MODE" -ranks "$RANKS" \
    -store "$WORK/st-headkill" -cluster-peers "$KPEERS" -cluster-self 0 \
    -ledger "$LEDGER" -head-retries 20 2>"$WORK/head1.err" || STATUS=$?
if [ "$STATUS" -eq 0 ]; then
    echo "cluster_local: FAIL — armed head survived its kill schedule (lower the block count?)" >&2
    exit 1
fi
if [ "$STATUS" -ne 137 ]; then
    cat "$WORK/head1.err" >&2
    echo "cluster_local: FAIL — armed head exited with status $STATUS, not by its SIGKILL" >&2
    exit 1
fi
echo "cluster_local: head killed mid-run; respawning" >&2

# Second incarnation: same command line, no kill. It replays the ledger,
# starts head generation 2, and supervises the run to completion.
"$WORK/krongen" -a "$A" -power 3 -mode "$MODE" -ranks "$RANKS" \
    -store "$WORK/st-headkill" -cluster-peers "$KPEERS" -cluster-self 0 \
    -ledger "$LEDGER" -head-retries 20 -stats

for pid in $PIDS; do
    wait "$pid" || { echo "cluster_local: head-kill worker pid $pid failed" >&2; exit 1; }
done
PIDS=""

"$WORK/krongen" -dump-store "$WORK/st-headkill" | sort >"$WORK/headkill.txt"
if ! diff -u "$WORK/chain-single.txt" "$WORK/headkill.txt" >&2; then
    echo "cluster_local: FAIL — store after head respawn differs from the single-rank store" >&2
    exit 1
fi
KEDGES=$(wc -l <"$WORK/headkill.txt" | tr -d ' ')
echo "cluster_local: OK — $KEDGES edges identical after head kill+respawn (ledger: $(wc -c <"$LEDGER" | tr -d ' ') bytes)" >&2
