#!/bin/sh
# nodesmoke runs cmd/forknode's three-node loopback scenario over real TCP
# and checks the paper's O1 census on it:
#
#   ETH miner    127.0.0.1:30341  -chain eth -mine -save
#   ETH follower 127.0.0.1:30342  -chain eth -connect <miner> -save, its
#                                 links through -faults (latency and
#                                 jitter, no loss)
#   ETC miner    127.0.0.1:30343  -chain etc -mine
#
# A crawl presenting ETC's fork id must (b) reach the ETC miner and (c) be
# refused at the handshake by the ETH miner, 0 reachable. Once the same
# crawl is refused by the follower too, the follower has synced past the
# fork block; both ETH nodes are stopped and (a) the follower's snapshot
# must be a non-empty byte prefix of the miner's.
#
# The crawler presents ETC's post-fork id only if its own chain is past
# the fork block (8), so the ETC miner's first run cuts a snapshot there;
# the crawler loads it, and the ETC miner resumes from it. Every wait polls
# its condition against a deadline. `make nodesmoke` runs this; so does
# CI's node-smoke job.
set -eu

MINER=127.0.0.1:30341
FOLLOWER=127.0.0.1:30342
ETC=127.0.0.1:30343
FAULTS="seed=7,latency=2ms,jitter=5ms"
DEADLINE=10 # seconds per condition
GO="${GO:-go}"
BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
PIDS=""
trap 'for p in $PIDS; do kill $p 2>/dev/null || true; done; rm -rf "$BIN" "$WORK"' EXIT

echo "nodesmoke: building forknode..."
$GO build -o "$BIN/forknode" ./cmd/forknode
start_ns=$(date +%s%N)

fail() {
    echo "nodesmoke: FAIL $1" >&2
    for log in "$WORK"/*.log; do
        echo "--- $log" >&2
        tail -n 20 "$log" >&2
    done
    exit 1
}

# poll WHAT CMD... — rerun CMD until it succeeds, or fail after DEADLINE.
poll() {
    what="$1"; shift
    end=$(( $(date +%s) + DEADLINE ))
    until "$@"; do
        [ "$(date +%s)" -lt "$end" ] || fail "$what (no success within ${DEADLINE}s)"
        sleep 0.05
    done
    echo "nodesmoke: ok   $what"
}

# node NAME ARGS... — start a forknode in the background, logging to NAME.log.
node() {
    name="$1"; shift
    "$BIN/forknode" "$@" >"$WORK/$name.log" 2>&1 &
    PIDS="$PIDS $!"
    eval "${name}_pid=$!"
}

logged() { grep -q "$2" "$WORK/$1.log"; }
exited() { ! kill -0 "$1" 2>/dev/null; }

# stop NAME — SIGTERM a node; it must exit 0 after saving its snapshot.
stop() {
    eval "pid=\$${1}_pid"
    kill -TERM "$pid"
    poll "$1 exits on SIGTERM" exited "$pid"
    wait "$pid" || fail "$1 exited non-zero"
    logged "$1" 'saved chain' || fail "$1 logged no saved snapshot"
}

# crawl SEED — the census from SEED, presenting ETC's post-fork id.
crawl() {
    "$BIN/forknode" -chain etc -load "$WORK/etc.snap" -crawl "$1" >"$WORK/crawl.out" 2>>"$WORK/crawl.log"
}
reachable() { crawl "$1" && grep -q "^  reachable   $1\$" "$WORK/crawl.out"; }
refused() { crawl "$1" && grep -q ': 0 reachable,' "$WORK/crawl.out"; }

# The ETC snapshot past the fork block.
node etccut -chain etc -mine -blockms 20 -seed 3 -save "$WORK/etc.snap"
poll "ETC miner passes the fork block" logged etccut 'mined block 8 '
stop etccut

node miner -listen "$MINER" -chain eth -mine -blockms 50 -seed 1 -save "$WORK/miner.snap"
node etc -listen "$ETC" -chain etc -load "$WORK/etc.snap" -mine -blockms 50 -seed 2
poll "ETH miner listening" logged miner 'listening on'
node follower -listen "$FOLLOWER" -chain eth -connect "$MINER" -faults "$FAULTS" -save "$WORK/follower.snap"
poll "ETH follower connected to the miner" logged follower "connected to $MINER"

poll "(b) the ETC crawl reaches the ETC miner" reachable "$ETC"
poll "(c) the ETH miner refuses the ETC crawl: 0 reachable" refused "$MINER"
poll "the follower synced past the fork: it refuses the ETC crawl" refused "$FOLLOWER"

stop follower
stop miner
size=$(wc -c <"$WORK/follower.snap")
[ "$size" -gt 0 ] || fail "(a) the follower's snapshot is empty"
cmp -s -n "$size" "$WORK/follower.snap" "$WORK/miner.snap" ||
    fail "(a) the follower's snapshot ($size bytes) is not a prefix of the miner's ($(wc -c <"$WORK/miner.snap") bytes)"
echo "nodesmoke: ok   (a) the follower's snapshot ($size bytes) is a byte prefix of the miner's ($(wc -c <"$WORK/miner.snap") bytes)"

echo "nodesmoke: PASS in $(( ($(date +%s%N) - start_ns) / 1000000 )) ms after the build"
