#!/bin/sh
# Observability smoke test: starts two TCP sites with debug endpoints,
# runs one distributed query through skalla-coord with JSON stats and
# Chrome-trace output, then asserts every observability surface serves
# valid, non-trivial JSON (via scripts/jsoncheck — no jq dependency).
set -eu
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
SITE1_PID=""
SITE2_PID=""
cleanup() {
    [ -n "$SITE1_PID" ] && kill "$SITE1_PID" 2>/dev/null || true
    [ -n "$SITE2_PID" ] && kill "$SITE2_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$WORK/skalla-site" ./cmd/skalla-site
go build -o "$WORK/skalla-coord" ./cmd/skalla-coord
go build -o "$WORK/jsoncheck" ./scripts/jsoncheck

# Fixed high ports; loopback only.
S1=127.0.0.1:19401
S2=127.0.0.1:19402
D1=127.0.0.1:19411
D2=127.0.0.1:19412

echo "== start sites =="
"$WORK/skalla-site" -addr "$S1" -id site0 -debug-addr "$D1" >"$WORK/site0.log" 2>&1 &
SITE1_PID=$!
"$WORK/skalla-site" -addr "$S2" -id site1 -debug-addr "$D2" >"$WORK/site1.log" 2>&1 &
SITE2_PID=$!

# Wait for both TCP listeners to come up (sites print their bound
# address once listening).
for i in $(seq 1 50); do
    if grep -q "listening" "$WORK/site0.log" && grep -q "listening" "$WORK/site1.log"; then
        break
    fi
    sleep 0.1
done

echo "== run query (stats JSON + trace, profiled) =="
# -profile tags the execution with a query ID, so each site records a
# per-request profile and serves it on /profiles below.
"$WORK/skalla-coord" \
    -sites "$S1,$S2" \
    -generate tpcr -rows 4000 -customers 200 \
    -base CustName \
    -md "count(*) AS cnt1, avg(F.Quantity) AS avg1 ; F.CustName = B.CustName" \
    -md "count(*) AS cnt2 ; F.CustName = B.CustName AND F.Quantity >= B.avg1" \
    -profile -stats-json -trace "$WORK/trace.json" \
    >"$WORK/stats.json" 2>"$WORK/coord.log"

echo "== validate coordinator artifacts =="
# The coordinator logs the client stack it assembled for each site.
grep -qxF "client stack site0: pool(4) > retry(3,100ms) > tcp $S1" "$WORK/coord.log"
grep -qxF "client stack site1: pool(4) > retry(3,100ms) > tcp $S2" "$WORK/coord.log"
"$WORK/jsoncheck" -require rounds,bytes,rounds.0.name "$WORK/stats.json"
"$WORK/jsoncheck" -require traceEvents,traceEvents.0.name "$WORK/trace.json"

echo "== validate site debug endpoints =="
# The sites served real rounds, so their metrics must be non-empty
# valid JSON with populated counters.
"$WORK/jsoncheck" -url "http://$D1/metrics" -require counters,counters.site.rounds_served
"$WORK/jsoncheck" -url "http://$D2/metrics" -require counters,counters.site.rounds_served
"$WORK/jsoncheck" -url "http://$D1/events"
"$WORK/jsoncheck" -url "http://$D1/trace" -require traceEvents

echo "== validate per-request profiles =="
# The query above was QueryID-tagged, so both sites must have recorded
# at least one per-request profile.
"$WORK/jsoncheck" -url "http://$D1/profiles" -require 0.query_id,0.outcome,0.wall_ns
"$WORK/jsoncheck" -url "http://$D2/profiles" -require 0.query_id,0.outcome,0.wall_ns

echo "== validate pprof and runtime gauges =="
"$WORK/jsoncheck" -url "http://$D1/debug/pprof/" -raw
"$WORK/jsoncheck" -url "http://$D1/metrics" -require gauges,gauges.runtime.goroutines,gauges.runtime.heap_bytes

echo "observability smoke passed"
