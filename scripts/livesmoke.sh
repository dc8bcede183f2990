#!/bin/sh
# livesmoke is the live measurement plane's end-to-end gate: boot
# forkserve -live (the archive serves WHILE the scenario simulates),
# follow the event feed over RPC with forkanalyze -follow into CSV
# tables, run the identical scenario through the batch exporter
# (forksim -mode full), and require the two CSV sets byte-identical —
# the streaming analyzer's convergence guarantee, exercised over a real
# HTTP wire — and the O1-O6 lines of forksim, of forkanalyze -dir over
# its export and over the follower's streamed tables, and of the
# follower's EOF summary identical. The follower is given a dead first
# endpoint, so every read
# proves the RPC client's failover path as well. It also checks the
# streamed head against the polled eth_blockNumber and the live metrics.
# The convergence diff lands in $OUT/convergence.diff (empty on success;
# CI uploads it).
set -eu

ADDR="${LIVESMOKE_ADDR:-127.0.0.1:18555}"
BASE="http://$ADDR"
SEED="${LIVESMOKE_SEED:-9}"
DAYS="${LIVESMOKE_DAYS:-2}"
OUT="${LIVESMOKE_OUT:-live-smoke-out}"
GO="${GO:-go}"
LOG="$(mktemp)"
BIN="$(mktemp -d)"
PID=
trap '[ -z "$PID" ] || kill $PID 2>/dev/null || true; rm -rf "$LOG" "$BIN"' EXIT

mkdir -p "$OUT"
: > "$OUT/convergence.diff"

echo "livesmoke: building forkserve, forkanalyze, forksim..."
$GO build -o "$BIN/forkserve" ./cmd/forkserve
$GO build -o "$BIN/forkanalyze" ./cmd/forkanalyze
$GO build -o "$BIN/forksim" ./cmd/forksim

"$BIN/forkserve" -seed "$SEED" -days "$DAYS" -live -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!

echo "livesmoke: waiting for $BASE/healthz..."
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i+1))
    if [ "$i" -gt 60 ]; then
        echo "livesmoke: server never came up; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    if ! kill -0 $PID 2>/dev/null; then
        echo "livesmoke: server exited early; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done

# Follow the live run to its EOF marker; the analyzer writes its
# converged CSV tables when the feed completes. The first endpoint of the
# list refuses connections (port 1): route discovery and the first read
# must both move on to the live server.
DEAD="${LIVESMOKE_DEAD:-http://127.0.0.1:1}"
echo "livesmoke: following the live feed through $DEAD,$BASE..."
"$BIN/forkanalyze" -follow "$DEAD,$BASE" -out "$OUT/live" >"$OUT/follow.log" || {
    cat "$OUT/follow.log"; echo "livesmoke: FAIL forkanalyze -follow exited non-zero" >&2; exit 1; }
cat "$OUT/follow.log"
grep -q "^following $DEAD/[a-z0-9]*,$BASE/" "$OUT/follow.log" || {
    echo "livesmoke: FAIL the dead endpoint is missing from the follower's endpoint list" >&2; exit 1; }

# The streamed head must equal the served head: replay the newHeads
# stream for the first route and compare its last head number against
# eth_blockNumber on the same route.
route="$(curl -s "$BASE/readyz" | sed -n 's/.*"routes":{"\([a-z0-9]*\)".*/\1/p')"
[ -n "$route" ] || { echo "livesmoke: FAIL no route discovered from /readyz" >&2; exit 1; }
streamed_head="$(curl -s --max-time 30 "$BASE/$route/stream?stream=newHeads&cursor=0" \
    | sed -n 's/.*"number":\([0-9]*\).*/\1/p' | tail -1)"
polled_hex="$(curl -s -X POST -H 'Content-Type: application/json' \
    -d '{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}' \
    "$BASE/$route" | sed -n 's/.*"result":"0x\([0-9a-f]*\)".*/\1/p')"
polled_head="$(printf '%d' "0x$polled_hex")"
if [ -z "$streamed_head" ] || [ "$streamed_head" -ne "$polled_head" ]; then
    echo "livesmoke: FAIL streamed head ($streamed_head) != polled head ($polled_head) on /$route" >&2
    exit 1
fi
echo "livesmoke: ok   streamed head matches polled head ($polled_head) on /$route"

# The live metrics must be present after the follow traffic.
metrics="$(curl -sf "$BASE/debug/metrics")"
for key in 'live.subscribers' 'live.events'; do
    case "$metrics" in
        *"$key"*) ;;
        *) echo "livesmoke: FAIL metrics snapshot missing $key" >&2; exit 1 ;;
    esac
done
echo "livesmoke: ok   live metrics"

# Ground truth: the identical scenario through the batch exporter, and
# forkanalyze's reading of that export.
echo "livesmoke: running the batch export for comparison..."
"$BIN/forksim" -seed "$SEED" -days "$DAYS" -mode full -out "$OUT/batch" >"$OUT/forksim.log"
"$BIN/forkanalyze" -dir "$OUT/batch" >"$OUT/analyze.log"
"$BIN/forkanalyze" -dir "$OUT/live" >"$OUT/analyze-live.log"

status=0
for f in blocks.csv txs.csv days.csv; do
    if ! diff -u "$OUT/batch/$f" "$OUT/live/$f" >>"$OUT/convergence.diff" 2>&1; then
        echo "livesmoke: FAIL $f diverges between live follow and batch export" >&2
        status=1
    else
        echo "livesmoke: ok   $f byte-identical (live follow vs batch export)"
    fi
done

# One reading of a run: forksim's O1-O6 lines, forkanalyze -dir's over
# the batch export and over the follower's streamed tables, and the
# summary -follow printed at EOF must agree.
grep '^O[1-6]' "$OUT/forksim.log" >"$OUT/forksim.obs" || true
[ -s "$OUT/forksim.obs" ] || { echo "livesmoke: FAIL forksim printed no O1-O6 lines" >&2; exit 1; }
for src in analyze analyze-live follow; do
    grep '^O[1-6]' "$OUT/$src.log" >"$OUT/$src.obs" || true
    if ! diff -u "$OUT/forksim.obs" "$OUT/$src.obs" >>"$OUT/convergence.diff" 2>&1; then
        echo "livesmoke: FAIL O1-O6 lines of $src.log differ from forksim's" >&2
        status=1
    else
        echo "livesmoke: ok   O1-O6 lines identical ($src.log vs forksim)"
    fi
done
[ "$status" -eq 0 ] || { echo "livesmoke: diff in $OUT/convergence.diff" >&2; exit 1; }

echo "livesmoke: PASS"
