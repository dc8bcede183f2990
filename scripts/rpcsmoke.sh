#!/bin/sh
# rpcsmoke boots forkserve on a throwaway port, curls every served method
# on both chain endpoints, checks /debug/metrics, and fails on any
# malformed response. It then sends 2 000 distinct difficulty windows and
# 5 000 distinct balance lookups, and fails unless the route's response
# cache stays within its 16 MiB and its 4 096 entries. forkload then loads
# it for a second and must finish without a protocol or transport error.
# Next it boots a replica following
# the primary's sync plane under injected storage read errors, waits for
# it to catch up, checks that the replica serves the same answers plus the
# replica-tier metrics, and drains it with SIGTERM. Last, an orphan replica
# following addresses where nothing listens must report itself degraded,
# log its failed dials and drain cleanly. Along the way it saves the
# booted primary's in-use heap (after a GC) to $RPCSMOKE_OUT/heap.pprof
# and prints its total. CI's RPC smoke job runs this and uploads the
# profile; `make rpcsmoke` locally does the same.
set -eu

ADDR="${RPCSMOKE_ADDR:-127.0.0.1:18545}"
BASE="http://$ADDR"
RADDR="${RPCSMOKE_REPLICA_ADDR:-127.0.0.1:18546}"
RBASE="http://$RADDR"
OADDR="${RPCSMOKE_ORPHAN_ADDR:-127.0.0.1:18547}"
P2P="${RPCSMOKE_P2P:-127.0.0.1:18561,127.0.0.1:18562}"
DAYS="${RPCSMOKE_DAYS:-1}"
OUT="${RPCSMOKE_OUT:-rpcsmoke-out}"
LOG="$(mktemp)"
RLOG="$(mktemp)"
OLOG="$(mktemp)"
BIN="$(mktemp -d)"
GO="${GO:-go}"
PID=""
RPID=""
OPID=""
trap '[ -z "$PID" ] || kill $PID 2>/dev/null || true; [ -z "$RPID" ] || kill $RPID 2>/dev/null || true; [ -z "$OPID" ] || kill $OPID 2>/dev/null || true; rm -rf "$LOG" "$RLOG" "$OLOG" "$BIN"' EXIT

echo "rpcsmoke: building forkserve, forkload..."
$GO build -o "$BIN/forkserve" ./cmd/forkserve
$GO build -o "$BIN/forkload" ./cmd/forkload

"$BIN/forkserve" -days "$DAYS" -addr "$ADDR" -p2p "$P2P" >"$LOG" 2>&1 &
PID=$!

echo "rpcsmoke: waiting for $BASE/healthz..."
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i+1))
    if [ "$i" -gt 120 ]; then
        echo "rpcsmoke: server never came up; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 $PID 2>/dev/null; then
        echo "rpcsmoke: server exited early; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done

# call CHAIN METHOD PARAMS — posts one JSON-RPC request and requires a
# non-null "result" member in the response.
call() {
    chain="$1"; method="$2"; params="$3"
    body="{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"$method\",\"params\":$params}"
    resp="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "$BASE/$chain")" || {
        echo "rpcsmoke: FAIL $chain $method: transport error" >&2; exit 1; }
    case "$resp" in
        *'"error"'*)
            echo "rpcsmoke: FAIL $chain $method: $resp" >&2; exit 1 ;;
        *'"result"'*)
            echo "rpcsmoke: ok   $chain $method" ;;
        *)
            echo "rpcsmoke: FAIL $chain $method: no result member: $resp" >&2; exit 1 ;;
    esac
}

for chain in eth etc; do
    # Head, then a real block hash + tx hash pulled out of block 1 for the
    # lookup methods (block 1 always exists after a 1-day run; tx lookups
    # tolerate a null result on an empty block via the jq-free check).
    call "$chain" eth_blockNumber '[]'
    call "$chain" eth_getBlockByNumber '["0x1",true]'
    call "$chain" eth_getBlockByNumber '["latest",false]'

    hash=$(curl -s -X POST -H 'Content-Type: application/json' \
        -d '{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1",false]}' \
        "$BASE/$chain" | sed -n 's/.*"hash":"\(0x[0-9a-f]*\)".*/\1/p')
    [ -n "$hash" ] || { echo "rpcsmoke: FAIL $chain: no block hash extracted" >&2; exit 1; }
    call "$chain" eth_getBlockByHash "[\"$hash\",false]"

    miner=$(curl -s -X POST -H 'Content-Type: application/json' \
        -d '{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1",false]}' \
        "$BASE/$chain" | sed -n 's/.*"miner":"\(0x[0-9a-f]*\)".*/\1/p')
    call "$chain" eth_getBalance "[\"$miner\",\"latest\"]"
    call "$chain" eth_getTransactionCount "[\"$miner\",\"latest\"]"

    txhash=""
    n=1
    while [ -z "$txhash" ] && [ "$n" -le 32 ]; do
        txhash=$(curl -s -X POST -H 'Content-Type: application/json' \
            -d "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"eth_getBlockByNumber\",\"params\":[\"$(printf '0x%x' $n)\",false]}" \
            "$BASE/$chain" | sed -n 's/.*"transactions":\["\(0x[0-9a-f]*\)".*/\1/p')
        n=$((n+1))
    done
    if [ -n "$txhash" ]; then
        call "$chain" eth_getTransactionByHash "[\"$txhash\"]"
        call "$chain" eth_getTransactionReceipt "[\"$txhash\"]"
    else
        echo "rpcsmoke: note $chain blocks 1-32 carry no txs; skipping tx lookups"
    fi

    call "$chain" fork_difficultyWindow '["0x1","0x20"]'
    call "$chain" fork_echoCandidates '["0x1","0x20"]'
    call "$chain" fork_poolShares '["0x1","0x20"]'
done

metrics="$(curl -sf "$BASE/debug/metrics")"
for key in 'rpc.eth.eth_blockNumber.requests' 'rpc.etc.eth_blockNumber.requests' 'storage.eth.reads'; do
    case "$metrics" in
        *"$key"*) ;;
        *) echo "rpcsmoke: FAIL metrics snapshot missing $key" >&2; exit 1 ;;
    esac
done
echo "rpcsmoke: ok   /debug/metrics"

# The response cache is bounded in bytes: 2 000 distinct 1 000-block
# difficulty windows (about 80 KB of result each, 160 MB in all), sent to
# the primary in batches of 50, must leave the route's cache within its
# 16 MiB.
from=1
while [ "$from" -le 2000 ]; do
    body="["
    i=0
    while [ "$i" -lt 50 ]; do
        f=$((from+i))
        [ "$i" -eq 0 ] || body="$body,"
        body="$body{\"jsonrpc\":\"2.0\",\"id\":$f,\"method\":\"fork_difficultyWindow\",\"params\":[\"$(printf '0x%x' "$f")\",\"$(printf '0x%x' $((f+999)))\"]}"
        i=$((i+1))
    done
    curl -sf -o "$BIN/windows.json" -X POST -H 'Content-Type: application/json' -d "$body]" "$BASE/eth" || {
        echo "rpcsmoke: FAIL difficulty window batch from $from: transport error" >&2; exit 1; }
    if grep -q '"error"' "$BIN/windows.json"; then
        echo "rpcsmoke: FAIL difficulty window batch from $from: $(head -c 300 "$BIN/windows.json")" >&2; exit 1
    fi
    from=$((from+50))
done
cbytes="$(curl -sf "$BASE/debug/metrics" | sed -n 's/^ *"rpc\.eth\.cache_bytes": \([0-9.e+]*\),\{0,1\}$/\1/p')"
[ -n "$cbytes" ] || { echo "rpcsmoke: FAIL metrics snapshot missing rpc.eth.cache_bytes" >&2; exit 1; }
if ! awk -v b="$cbytes" 'BEGIN { exit !(b > 0 && b <= 16 * 1024 * 1024) }'; then
    echo "rpcsmoke: FAIL rpc.eth.cache_bytes = $cbytes after 2000 windows, want (0, 16 MiB]" >&2; exit 1
fi
echo "rpcsmoke: ok   2000 difficulty windows leave rpc.eth.cache_bytes at $cbytes (bound 16 MiB)"

# The response cache is bounded in entries too: 5 000 distinct small
# eth_getBalance answers (one address each), sent in batches of 50, must
# leave the route's cache within its 4 096 entries.
from=1
while [ "$from" -le 5000 ]; do
    body="["
    i=0
    while [ "$i" -lt 50 ]; do
        f=$((from+i))
        [ "$i" -eq 0 ] || body="$body,"
        body="$body{\"jsonrpc\":\"2.0\",\"id\":$f,\"method\":\"eth_getBalance\",\"params\":[\"$(printf '0x%040x' "$f")\",\"latest\"]}"
        i=$((i+1))
    done
    curl -sf -o "$BIN/balances.json" -X POST -H 'Content-Type: application/json' -d "$body]" "$BASE/eth" || {
        echo "rpcsmoke: FAIL balance batch from $from: transport error" >&2; exit 1; }
    if grep -q '"error"' "$BIN/balances.json"; then
        echo "rpcsmoke: FAIL balance batch from $from: $(head -c 300 "$BIN/balances.json")" >&2; exit 1
    fi
    from=$((from+50))
done
centries="$(curl -sf "$BASE/debug/metrics" | sed -n 's/^ *"rpc\.eth\.cache_entries": \([0-9.e+]*\),\{0,1\}$/\1/p')"
[ -n "$centries" ] || { echo "rpcsmoke: FAIL metrics snapshot missing rpc.eth.cache_entries" >&2; exit 1; }
if ! awk -v n="$centries" 'BEGIN { exit !(n > 0 && n <= 4096) }'; then
    echo "rpcsmoke: FAIL rpc.eth.cache_entries = $centries after 5000 balances, want (0, 4096]" >&2; exit 1
fi
echo "rpcsmoke: ok   5000 balances leave rpc.eth.cache_entries at $centries (bound 4096)"

# What the booted primary holds: its heap after a GC, as a profile to
# keep and as one in-use total.
mkdir -p "$OUT"
curl -sf -o "$OUT/heap.pprof" "$BASE/debug/pprof/heap?gc=1" || {
    echo "rpcsmoke: FAIL /debug/pprof/heap?gc=1" >&2; exit 1; }
inuse="$($GO tool pprof -sample_index=inuse_space -top "$OUT/heap.pprof" 2>/dev/null | sed -n 's/.* of \(.*\) total$/\1/p')"
[ -n "$inuse" ] || { echo "rpcsmoke: FAIL $OUT/heap.pprof has no in-use total" >&2; exit 1; }
echo "rpcsmoke: ok   heap in use after GC: $inuse ($OUT/heap.pprof)"

# Live phase: the live measurement plane must answer on every route —
# snapshot, a cursor read of the whole feed (the archive is complete, so
# following fork_liveEvents' returned cursor from 0 reaches the EOF
# marker), the persistent NDJSON stream — and the server-side
# subscription methods are gone.
for chain in eth etc; do
    call "$chain" fork_liveSnapshot '[]'
    cursor=0
    seen_eof=""
    n=0
    while [ -z "$seen_eof" ] && [ "$n" -le 30 ]; do
        page="$(curl -sf -X POST -H 'Content-Type: application/json' \
            -d "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"fork_liveEvents\",\"params\":[\"events\",$cursor,4096]}" \
            "$BASE/$chain")"
        case "$page" in
            *'"error"'*) echo "rpcsmoke: FAIL $chain fork_liveEvents: $page" >&2; exit 1 ;;
            *'"kind":"eof"'*) seen_eof=1 ;;
        esac
        cursor="$(printf '%s' "$page" | sed -n 's/.*"cursor":\([0-9]*\).*/\1/p')"
        [ -n "$cursor" ] || { echo "rpcsmoke: FAIL $chain fork_liveEvents returned no cursor: $page" >&2; exit 1; }
        n=$((n+1))
    done
    [ -n "$seen_eof" ] || { echo "rpcsmoke: FAIL $chain feed replay never reached EOF" >&2; exit 1; }
    echo "rpcsmoke: ok   $chain feed replay to EOF"

    gone="$(curl -sf -X POST -H 'Content-Type: application/json' \
        -d '{"jsonrpc":"2.0","id":1,"method":"fork_subscribe","params":["events",0]}' "$BASE/$chain")"
    case "$gone" in
        *'"code":-32601'*) echo "rpcsmoke: ok   $chain fork_subscribe is method-not-found" ;;
        *) echo "rpcsmoke: FAIL $chain fork_subscribe still answers: $gone" >&2; exit 1 ;;
    esac

    headline="$(curl -s --max-time 20 "$BASE/$chain/stream?stream=newHeads&cursor=0" | sed -n '2p')"
    case "$headline" in
        *'"method":"fork_subscription"'*) echo "rpcsmoke: ok   $chain /stream" ;;
        *) echo "rpcsmoke: FAIL $chain /stream first notification: $headline" >&2; exit 1 ;;
    esac
done

lmetrics="$(curl -sf "$BASE/debug/metrics")"
for key in 'live.subscribers' 'live.events'; do
    case "$lmetrics" in
        *"$key"*) ;;
        *) echo "rpcsmoke: FAIL metrics snapshot missing $key" >&2; exit 1 ;;
    esac
done
echo "rpcsmoke: ok   live metrics"

# Load phase: forkload's read mix plus two feed subscribers against the
# primary for one second. forkload itself exits non-zero on any protocol
# violation or transport error; its report must show answered reads and
# streamed events.
"$BIN/forkload" -url "$BASE" -duration 1s -clients 4 -subscribers 2 -out "$BIN/load.json" 2>"$BIN/load.log" || {
    echo "rpcsmoke: FAIL forkload exited non-zero:" >&2; cat "$BIN/load.log" >&2; exit 1; }
for key in requests sub_events; do
    n="$(sed -n "s/^  \"$key\": \([0-9]*\),\{0,1\}\$/\1/p" "$BIN/load.json")"
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "rpcsmoke: FAIL forkload report has no $key:" >&2; cat "$BIN/load.json" >&2; exit 1
    fi
    echo "rpcsmoke: ok   forkload $key=$n"
done

# Replica tier: boot a replica following the primary's sync plane with
# injected storage faults (a fifth of its store's reads fail), wait for
# /readyz to flip to 200 (readiness implies the head sync caught up
# within the staleness bound), then require byte-identical answers and
# the replica-tier gauges.
echo "rpcsmoke: booting replica following $P2P under storage faults..."
"$BIN/forkserve" -days "$DAYS" -addr "$RADDR" -follow "$P2P" -replica-name smoke -storage-faults "seed=7,readerr=0.2" >"$RLOG" 2>&1 &
RPID=$!

echo "rpcsmoke: waiting for $RBASE/readyz..."
i=0
until curl -sf "$RBASE/readyz" >/dev/null 2>&1; do
    i=$((i+1))
    if [ "$i" -gt 120 ]; then
        echo "rpcsmoke: replica never became ready; log:" >&2
        cat "$RLOG" >&2
        exit 1
    fi
    if ! kill -0 $RPID 2>/dev/null; then
        echo "rpcsmoke: replica exited early; log:" >&2
        cat "$RLOG" >&2
        exit 1
    fi
    sleep 1
done
echo "rpcsmoke: ok   replica /readyz"

# A caught-up replica must answer exactly what the primary answers.
for chain in eth etc; do
    for body in \
        '{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}' \
        '{"jsonrpc":"2.0","id":1,"method":"eth_getBlockByNumber","params":["0x1",true]}' \
        '{"jsonrpc":"2.0","id":1,"method":"fork_difficultyWindow","params":["0x1","0x20"]}'; do
        want="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "$BASE/$chain")"
        got="$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "$RBASE/$chain")"
        if [ "$want" != "$got" ]; then
            echo "rpcsmoke: FAIL replica $chain answer diverges from primary" >&2
            echo "  primary: $want" >&2
            echo "  replica: $got" >&2
            exit 1
        fi
    done
    echo "rpcsmoke: ok   replica /$chain matches primary"
done

rmetrics="$(curl -sf "$RBASE/debug/metrics")"
for key in 'sync.lag_blocks' 'sync.eth.lag_blocks' 'serve.degraded' 'rpc.failovers' 'rpc.hedged'; do
    case "$rmetrics" in
        *"$key"*) ;;
        *) echo "rpcsmoke: FAIL replica metrics snapshot missing $key" >&2; exit 1 ;;
    esac
done
echo "rpcsmoke: ok   replica /debug/metrics"

# drain NAME PID LOG — SIGTERM must finish in-flight work, flush the
# stores and exit 0 with the clean-shutdown log line.
drain() {
    name="$1"; pid="$2"; log="$3"
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i+1))
        if [ "$i" -gt 30 ]; then
            echo "rpcsmoke: $name did not drain within 30s; log:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 1
    done
    wait "$pid" 2>/dev/null || {
        echo "rpcsmoke: $name exited nonzero on SIGTERM; log:" >&2
        cat "$log" >&2
        exit 1
    }
    case "$(cat "$log")" in
        *'drained and closed cleanly'*) echo "rpcsmoke: ok   $name graceful drain" ;;
        *) echo "rpcsmoke: FAIL $name drain log missing clean-shutdown line:" >&2
           cat "$log" >&2
           exit 1 ;;
    esac
}

drain replica "$RPID" "$RLOG"
RPID=""

# Orphan replica: its primary addresses have nothing listening. It must
# say so — /readyz 503 — and log why ("dial primary: ..."), not fail
# silently, while it keeps redialling on p2p's backoff.
echo "rpcsmoke: booting an orphan replica following 127.0.0.1:1..."
"$BIN/forkserve" -days "$DAYS" -addr "$OADDR" -follow 127.0.0.1:1,127.0.0.1:1 -replica-name orphan >"$OLOG" 2>&1 &
OPID=$!
sleep 3
if ! kill -0 $OPID 2>/dev/null; then
    echo "rpcsmoke: orphan replica exited early; log:" >&2
    cat "$OLOG" >&2
    exit 1
fi
status="$(curl -s -o /dev/null -w '%{http_code}' "http://$OADDR/readyz")"
if [ "$status" != 503 ]; then
    echo "rpcsmoke: FAIL orphan replica /readyz = $status, want 503" >&2
    exit 1
fi
echo "rpcsmoke: ok   orphan replica /readyz 503"
case "$(cat "$OLOG")" in
    *'dial primary'*) echo "rpcsmoke: ok   orphan replica logs its failed dials" ;;
    *) echo "rpcsmoke: FAIL orphan replica log has no 'dial primary' line:" >&2
       cat "$OLOG" >&2
       exit 1 ;;
esac
drain "orphan replica" "$OPID" "$OLOG"
OPID=""

echo "rpcsmoke: PASS"
