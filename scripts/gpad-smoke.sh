#!/usr/bin/env sh
# CI smoke test for the gpad advice service, driven with curl against
# the real binary: POST a bundled kernel and assert a ranked advice
# response, POST it again and assert a byte-identical cache hit (one
# simulation at /statsz); typed errors, /metrics, trace-ID echo and the
# JSON request log; fast-forward live on the served path; a second gpad
# with a QoS config answers 429 quota_exceeded with an integer
# Retry-After and accounts two tenants under their own names; SIGTERM
# drains cleanly; a gpad restarted over a -store-dir serves the stored
# bytes. Load is bench/'s job (go run -C bench . -smoke drives all five
# workloads and checks every response). Bodies are compact JSON;
# values are asserted with jq. Run from the repo root.
set -eu

# expect DOC FILTER MESSAGE fails the smoke unless jq's FILTER holds on
# the JSON document DOC. Documents go through printf, not echo: some
# shells' echo expands the escapes inside JSON strings.
expect() {
    printf '%s\n' "$1" | jq -e "$2" >/dev/null 2>&1 || {
        echo "gpad-smoke: $3" >&2
        printf '%s\n' "$1" | head -c 2000 >&2
        exit 1
    }
}

# transport_free blanks the per-request transport fields of a result
# body in place — the cached value, the "traceId":"…", member — so two
# bodies can be compared byte for byte under the determinism contract.
transport_free() {
    printf '%s\n' "$1" | sed -e 's/"cached":[a-z]*/"cached":null/' -e 's/"traceId":"[^"]*",//'
}

ADDR=${GPAD_ADDR:-127.0.0.1:8377}
TMP=$(mktemp -d)
BIN=$TMP/gpad
LOG=$TMP/gpad.log
go build -o "$BIN" ./cmd/gpad

"$BIN" -addr "$ADDR" -log-format json >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null || true' EXIT INT TERM

# Wait for the health endpoint.
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "gpad-smoke: server did not become healthy" >&2
        exit 1
    fi
    sleep 0.2
done

REQ='{"bench":"rodinia/hotspot"}'
R1=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$REQ" "http://$ADDR/v1/advise")
R2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$REQ" "http://$ADDR/v1/advise")

expect "$R1" '.schemaVersion == "gpa-result/3"' "response is not a gpa-result/3 structured result"
expect "$R1" '.cached == false' "first response was not a cache miss"
# A ranked advice response: the Figure 8 report header plus at least
# one ranked entry.
expect "$R1" '.report | contains("GPA performance report for kernel")' "no advice report in response"
expect "$R1" '.advice[0].optimizer | length > 0' "no ranked advice entries in response"
expect "$R2" '.cached == true' "second response was not a cache hit"

# The determinism contract: modulo the transport-level fields (cached
# flag, per-request trace ID), the cold and cached response bodies are
# byte-identical (a cache hit reports the original run's elapsedMs, so
# even the timing field matches).
N1=$(transport_free "$R1")
N2=$(transport_free "$R2")
expect "$N1" '.traceId == null and .cached == null and .report != null' "transport fields not blanked in place"
if [ "$N1" != "$N2" ]; then
    echo "gpad-smoke: cached response differs from cold response" >&2
    exit 1
fi

# Typed errors map to status codes: an unknown architecture is a 400
# with a stable machine-readable code.
EC=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d '{"bench":"rodinia/hotspot","arch":"sm_999"}' "http://$ADDR/v1/advise")
if [ "$EC" != "400" ]; then
    echo "gpad-smoke: unknown arch returned status $EC, want 400" >&2
    exit 1
fi
EB=$(curl -s -X POST -H 'Content-Type: application/json' \
    -d '{"bench":"rodinia/hotspot","arch":"sm_999"}' "http://$ADDR/v1/advise")
expect "$EB" '.error.code == "unknown_arch"' "unknown arch error body missing code"

# /statsz: one simulation, one hit.
STATS=$(curl -sf "http://$ADDR/statsz")
expect "$STATS" '.runs == 1' "expected exactly one simulation"
expect "$STATS" '.hits == 1' "expected one cache hit"

# Trace IDs: a client-supplied X-Request-Id is echoed in the response
# header and the result body.
TRACE=$(curl -sf -X POST -H 'Content-Type: application/json' -H 'X-Request-Id: smoke-trace-1' \
    -d "$REQ" -D "$TMP/trace.headers" "http://$ADDR/v1/advise")
grep -qi '^X-Request-Id: smoke-trace-1' "$TMP/trace.headers" || {
    echo "gpad-smoke: trace ID not echoed in response header" >&2
    exit 1
}
expect "$TRACE" '.traceId == "smoke-trace-1"' "trace ID not echoed in result body"

# /metrics: a well-formed Prometheus scrape whose engine counters agree
# with /statsz, including the per-stage latency histograms and the
# per-route request counters (the unknown-arch 400 above must be
# counted under its stable code).
METRICS=$(curl -sf "http://$ADDR/metrics")
for SERIES in \
    'gpa_engine_runs_total 1' \
    'gpa_stage_duration_seconds_count{stage="simulate"} 1' \
    'gpa_stage_duration_seconds_count{stage="advise"} 1' \
    'gpa_http_requests_total{route="/v1/advise",status="400",code="unknown_arch"}' \
    'gpa_build_info' \
    'go_goroutines'; do
    echo "$METRICS" | grep -qF "$SERIES" || {
        echo "gpad-smoke: /metrics missing series: $SERIES" >&2
        echo "$METRICS" | head -50 >&2
        exit 1
    }
done

# Request logs are structured JSON with the trace ID attached.
grep -q '"trace":"smoke-trace-1"' "$LOG" || {
    echo "gpad-smoke: no structured log line for the traced request" >&2
    cat "$LOG" >&2
    exit 1
}

# The steady-state memoizer is live on the served path: every advise
# simulates with PC sampling on, and rodinia/nw is a periodic kernel, so
# its advise must have fast-forwarded.
curl -sf -X POST -H 'Content-Type: application/json' -d '{"bench":"rodinia/nw"}' \
    "http://$ADDR/v1/advise" >/dev/null
FFSTATS=$(curl -sf "http://$ADDR/statsz")
expect "$FFSTATS" '.ffCyclesSkipped > 0' "advise of rodinia/nw fast-forwarded nothing"

# Tenant-fair admission: a second gpad with one worker and a QoS
# config. The over-quota tenant answers 429 quota_exceeded with a
# computed integer Retry-After, and requests from two tenants are
# accounted per tenant at /statsz. (The strict fairness ratio — a 10:1
# offered load completing ~1:1 — is pinned deterministically by the
# -race Go tests; the smoke asserts the serving surface end to end.)
QADDR=${GPAD_QOS_ADDR:-127.0.0.1:8378}
QLOG=$TMP/gpad-qos.log
QOSCFG=$TMP/qos.json
cat >"$QOSCFG" <<'EOF'
{
  "tenants": {
    "smoke-limited": {"ratePerSec": 0.001, "burst": 1},
    "smoke-a": {"weight": 1},
    "smoke-b": {"weight": 1}
  }
}
EOF
"$BIN" -addr "$QADDR" -workers 1 -qos-config "$QOSCFG" -log-format json >"$QLOG" 2>&1 &
QPID=$!
trap 'kill $PID $QPID 2>/dev/null || true' EXIT INT TERM
i=0
until curl -sf "http://$QADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "gpad-smoke: qos server did not become healthy" >&2
        cat "$QLOG" >&2
        exit 1
    fi
    sleep 0.2
done

# Burst 1 at a negligible refill rate: the first request is admitted,
# the second is shed before touching the cache or a worker.
curl -sf -X POST -H 'Content-Type: application/json' -H 'X-Tenant-Id: smoke-limited' \
    -d "$REQ" "http://$QADDR/v1/advise" >/dev/null || {
    echo "gpad-smoke: in-burst request for the metered tenant failed" >&2
    exit 1
}
R429=$(curl -s -D - -o "$TMP/429.json" -X POST -H 'Content-Type: application/json' \
    -H 'X-Tenant-Id: smoke-limited' -d "$REQ" "http://$QADDR/v1/advise")
echo "$R429" | grep -q ' 429' || {
    echo "gpad-smoke: over-quota request did not answer 429" >&2
    echo "$R429" >&2
    exit 1
}
RETRY=$(echo "$R429" | tr -d '\r' | grep -i '^Retry-After:' | awk '{print $2}')
case "$RETRY" in
'' | *[!0-9]*)
    echo "gpad-smoke: 429 Retry-After is not an integer: '$RETRY'" >&2
    exit 1
    ;;
esac
expect "$(cat "$TMP/429.json")" '.error.code == "quota_exceeded"' "429 body missing quota_exceeded code"

# Two tenants, a fresh seed per request so every one is a miss that
# reaches the one worker: both must be served and accounted under their
# own names at /statsz.
SEED=100
for TENANT in smoke-a smoke-b smoke-a smoke-b smoke-a smoke-b; do
    SEED=$((SEED + 1))
    curl -sf -o /dev/null -X POST -H 'Content-Type: application/json' -H "X-Tenant-Id: $TENANT" \
        -d "{\"bench\":\"rodinia/hotspot\",\"seed\":$SEED}" "http://$QADDR/v1/advise" || {
        echo "gpad-smoke: tenant $TENANT request (seed $SEED) failed" >&2
        exit 1
    }
done
QSTATS=$(curl -sf "http://$QADDR/statsz")
for TENANT in smoke-a smoke-b; do
    expect "$QSTATS" ".tenants[\"$TENANT\"].served > 0" "tenant $TENANT has no served count at /statsz"
done
kill -TERM $QPID 2>/dev/null || true
wait $QPID || true
trap 'kill $PID 2>/dev/null || true' EXIT INT TERM

# Graceful shutdown: SIGTERM drains and exits 0 within the drain
# deadline, logging the completed drain.
kill -TERM $PID
STATUS=0
wait $PID || STATUS=$?
trap - EXIT INT TERM
if [ "$STATUS" -ne 0 ]; then
    echo "gpad-smoke: SIGTERM exit status $STATUS, want 0" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q 'shutdown complete' "$LOG" || {
    echo "gpad-smoke: no clean shutdown log line" >&2
    cat "$LOG" >&2
    exit 1
}

# Restart warmth: a gpad over a -store-dir is stopped and started again;
# the second process answers the first's request from the stored advice
# blob alone — byte-identical modulo the transport fields, one blob
# read, nothing simulated, nothing decoded, nothing written.
SADDR=${GPAD_STORE_ADDR:-127.0.0.1:8379}
SLOG=$TMP/gpad-store.log
start_store_gpad() {
    "$BIN" -addr "$SADDR" -store-dir "$TMP/store" -log-format json >>"$SLOG" 2>&1 &
    SPID=$!
    trap 'kill $SPID 2>/dev/null || true' EXIT INT TERM
    i=0
    until curl -sf "http://$SADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "gpad-smoke: store server did not become healthy" >&2
            cat "$SLOG" >&2
            exit 1
        fi
        sleep 0.2
    done
}
start_store_gpad
S1=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$REQ" "http://$SADDR/v1/advise")
kill -TERM $SPID
wait $SPID || true
start_store_gpad
S2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$REQ" "http://$SADDR/v1/advise")
SSTATS=$(curl -sf "http://$SADDR/statsz")
kill -TERM $SPID
wait $SPID || true
trap - EXIT INT TERM
expect "$S1" '.cached == false' "the store gpad's first response was not a miss"
expect "$S2" '.cached == true' "the restarted gpad's response was not a hit"
M1=$(transport_free "$S1")
M2=$(transport_free "$S2")
if [ "$M1" != "$M2" ]; then
    echo "gpad-smoke: restarted gpad's response differs from the cold run's" >&2
    exit 1
fi
expect "$SSTATS" '.sims == 0 and .storeHits == 1 and .storePuts == 0 and .stageDecodes == 0 and .stageServed == 1' \
    "restarted gpad's /statsz is not one stored hit with nothing simulated, decoded or written"

echo "gpad-smoke: OK (one simulation, byte-identical cache hit, typed errors, metrics, traced logs, fast-forward on the served path, tenant quotas and per-tenant accounting, clean shutdown, restart served from the store)"
