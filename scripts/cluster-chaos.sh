#!/bin/sh
# Cluster chaos test: keyload drives sustained check traffic through
# keyrouter while one of the three replicas is SIGKILLed mid-run. With
# replication 2, retrying keyload and a failing-over router, the run
# must finish with zero lost verdicts — every check answered, errors 0 —
# and the router's telemetry must show it actually absorbed the failure.
set -eu

TMP="$(mktemp -d)"
PIDS=""
trap 'for P in $PIDS; do kill "$P" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/keyserverd" ./cmd/keyserverd
go build -o "$TMP/keyrouter" ./cmd/keyrouter
go build -o "$TMP/keyload" ./cmd/keyload
go build -o "$TMP/freeport" ./cmd/freeport

# The peer list is fixed up front, so reserve free ports first.
set -- $("$TMP/freeport" 4)
R1="127.0.0.1:$1"; R2="127.0.0.1:$2"; R3="127.0.0.1:$3"
ROUTER="127.0.0.1:$4"
PEERS="$R1,$R2,$R3"

I=0
for R in $R1 $R2 $R3; do
    I=$((I + 1))
    "$TMP/keyserverd" -scale 0.05 -bits 128 -subsets 3 -seed 2016 -rate 0 \
        -listen "$R" -cluster-self "$R" -cluster-peers "$PEERS" \
        >"$TMP/r$I.out" 2>"$TMP/r$I.err" &
    PIDS="$PIDS $!"
    eval "PID$I=$!"
done

"$TMP/keyrouter" -listen "$ROUTER" -replicas "$PEERS" \
    >"$TMP/router.out" 2>"$TMP/router.err" &
PIDS="$PIDS $!"

READY=""
for _ in $(seq 1 600); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ROUTER/readyz")" = "200" ]; then
        READY=1; break
    fi
    sleep 0.1
done
[ -n "$READY" ] || { echo "cluster-chaos: router never became ready" >&2; cat "$TMP/router.err" "$TMP/r1.err" >&2; exit 1; }

# Load for 8s; the victim dies ~2s in, so three quarters of the run
# happens against a degraded-membership (but fully covered) cluster.
"$TMP/keyload" -addr "$ROUTER" -c 8 -duration 8s -retries 8 \
    -json "$TMP/chaos.json" >"$TMP/keyload.out" 2>&1 &
LOAD_PID=$!
PIDS="$PIDS $LOAD_PID"

sleep 2
kill -9 "$PID2" 2>/dev/null || true
echo "cluster-chaos: SIGKILLed replica $R2 mid-run"

wait "$LOAD_PID" || { echo "cluster-chaos: keyload failed" >&2; cat "$TMP/keyload.out" >&2; exit 1; }
cat "$TMP/keyload.out"

CHECKS="$(sed -n 's/.*"checks": \([0-9]*\).*/\1/p' "$TMP/chaos.json")"
ERRORS="$(sed -n 's/.*"errors": \([0-9]*\).*/\1/p' "$TMP/chaos.json")"
[ -n "$CHECKS" ] && [ "$CHECKS" -gt 0 ] \
    || { echo "cluster-chaos: no checks recorded" >&2; cat "$TMP/chaos.json" >&2; exit 1; }
[ "$ERRORS" = "0" ] \
    || { echo "cluster-chaos: $ERRORS lost verdicts out of $CHECKS" >&2; cat "$TMP/chaos.json" >&2; exit 1; }

# The router must still be fully covered (replication 2 survives one
# loss) and must have noticed the death: probes failing against the
# victim and /cluster/status carrying exactly one unhealthy replica.
# (Whether a forward retry fired is placement-dependent — the victim is
# only hit if it is a preferred owner for the exercised shards, which
# varies with the freeport-chosen ports — so retries are pinned by the
# deterministic router tests, not asserted here.)
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ROUTER/readyz")" = "200" ] \
    || { echo "cluster-chaos: router not ready after the kill" >&2; exit 1; }
curl -sf "http://$ROUTER/metrics" >"$TMP/metrics"
grep -q "cluster_probe_failures_total{replica=\"$R2\"}" "$TMP/metrics" \
    || { echo "cluster-chaos: no probe failures recorded for the dead replica" >&2; cat "$TMP/metrics" >&2; exit 1; }
curl -sf "http://$ROUTER/cluster/status" >"$TMP/status"
[ "$(grep -o '"healthy":false' "$TMP/status" | wc -l)" -eq 1 ] \
    || { echo "cluster-chaos: dead replica not marked unhealthy" >&2; cat "$TMP/status" >&2; exit 1; }
[ "$(grep -o '"healthy":true' "$TMP/status" | wc -l)" -eq 2 ] \
    || { echo "cluster-chaos: surviving replicas not both healthy" >&2; cat "$TMP/status" >&2; exit 1; }

echo "cluster chaos ok ($CHECKS checks, 0 lost verdicts through a replica SIGKILL)"
