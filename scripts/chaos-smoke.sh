#!/bin/sh
# Chaos smoke test: assert the resilience machinery actually engaged
# and actually recovered, over real sockets and across GCD nodes.
#
#  1. examples/livescan: two zscan sweeps over a loopback device fleet
#     with a heartbeat probe after every certificate fetch. The
#     crash-prone pair must go offline and refuse the second sweep, and
#     the harvest of the first must still be complete: 7 distinct
#     moduli, 4 of them factored. (The binary-level chaos -> re-sweep ->
#     ingest check is scan-smoke.)
#  2. weakkeys with two injected GCD node crashes (one per phase): the
#     supervisor must reassign the dead nodes' subsets and the study
#     output must be byte-for-byte identical to the fault-free run of
#     the same seed, with the reassignments observable via /metrics.
set -eu

TMP="$(mktemp -d)"
WK_PID=""
trap 'kill "$WK_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/weakkeys" ./cmd/weakkeys

# --- 1. real-socket sweeps vs crash-prone firmware ----------------------
# The fleet is seeded, so every asserted line is deterministic.
go run ./examples/livescan >"$TMP/scan.out"
grep -q '^scanned 7 devices twice, stored 12 observations$' "$TMP/scan.out" \
    || { echo "chaos-smoke: the two sweeps did not store 7 + 5 observations" >&2; cat "$TMP/scan.out" >&2; exit 1; }
grep -q '^heartbeat probing took 2 devices offline; 2 refused the second sweep$' "$TMP/scan.out" \
    || { echo "chaos-smoke: heartbeat crashes not seen by the second sweep" >&2; cat "$TMP/scan.out" >&2; exit 1; }
grep -q '^batch GCD factored 4 of 7 distinct moduli$' "$TMP/scan.out" \
    || { echo "chaos-smoke: harvest or batch GCD output wrong" >&2; cat "$TMP/scan.out" >&2; exit 1; }

# --- 2. supervised distributed GCD vs node crashes ---------------------
"$TMP/weakkeys" -q -scale 0.05 -bits 128 -subsets 3 -table 1 >"$TMP/clean.out"

"$TMP/weakkeys" -scale 0.05 -bits 128 -subsets 3 -table 1 \
    -gcd-crash build:0 -gcd-crash reduce:1 \
    -listen 127.0.0.1:0 -hold 30s \
    >"$TMP/chaos.out" 2>"$TMP/chaos.err" &
WK_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#.*diagnostics on http://\([^/]*\)/metrics.*#\1#p' "$TMP/chaos.err" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$WK_PID" 2>/dev/null || { echo "chaos-smoke: weakkeys exited before binding diagnostics" >&2; cat "$TMP/chaos.err" >&2; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "chaos-smoke: never saw the diagnostics address" >&2; exit 1; }

OK=""
for _ in $(seq 1 300); do
    if curl -sf "http://$ADDR/metrics" >"$TMP/metrics" 2>/dev/null \
        && awk '$1 == "distgcd_node_reassignments_total" && $2 + 0 == 2 { found = 1 } END { exit !found }' "$TMP/metrics" \
        && awk '$1 == "distgcd_node_failures_total" && $2 + 0 == 2 { found = 1 } END { exit !found }' "$TMP/metrics"; then
        OK=1
        break
    fi
    sleep 0.1
done
[ -n "$OK" ] || { echo "chaos-smoke: reassignment counters never reached 2 on /metrics" >&2; cat "$TMP/metrics" 2>/dev/null >&2; exit 1; }

# The counters fire mid-run; the summary log line only appears once the
# pipeline completes, so wait for it separately.
OK=""
for _ in $(seq 1 300); do
    if grep -q 'supervisor reassigned 2 subset(s)' "$TMP/chaos.err"; then
        OK=1
        break
    fi
    kill -0 "$WK_PID" 2>/dev/null || break
    sleep 0.1
done
[ -n "$OK" ] || { echo "chaos-smoke: supervisor log line missing" >&2; cat "$TMP/chaos.err" >&2; exit 1; }

# The supervisor line precedes the table render; killing now can
# truncate chaos.out mid-table. The -hold log line is emitted only
# after all stdout is written, so wait for it before killing.
OK=""
for _ in $(seq 1 300); do
    if grep -q 'holding diagnostics server' "$TMP/chaos.err"; then
        OK=1
        break
    fi
    kill -0 "$WK_PID" 2>/dev/null || break
    sleep 0.1
done
[ -n "$OK" ] || { echo "chaos-smoke: run never reached the -hold window" >&2; cat "$TMP/chaos.err" >&2; exit 1; }

kill "$WK_PID" 2>/dev/null || true
wait "$WK_PID" 2>/dev/null || true
WK_PID=""

cmp -s "$TMP/clean.out" "$TMP/chaos.out" \
    || { echo "chaos-smoke: chaos study output differs from fault-free run" >&2; diff "$TMP/clean.out" "$TMP/chaos.out" >&2 || true; exit 1; }

echo "chaos smoke ok (2 crashed devices refused the second sweep, 4 of 7 moduli factored; 2 GCD subsets reassigned, output identical to fault-free)"
