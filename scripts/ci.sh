#!/bin/sh
# Full local verification: build, vet, format check, tests (with race
# detector), examples, and a quick bench pass.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed: $unformatted" >&2
    exit 1
fi

echo "== build + vet =="
go build ./...
# Vet the fault-tolerance and recovery layers first for a fast, targeted
# failure signal, then the whole tree.
go vet ./internal/transport/... ./internal/core/... ./internal/site/... ./skalla/... ./cmd/...
go vet ./...

echo "== static analysis (skalla-lint) =="
# The analyzer suite itself must be vet-clean and race-clean before it is
# trusted to gate the rest of the tree.
go vet ./internal/lint/... ./cmd/skalla-lint
go test -race ./internal/lint/...
# Zero findings required; suppressions need //lint:ignore with a reason
# (see LINT.md). The recovery layers (checkpointing, drain, limits) are
# linted first for a targeted signal — errflow guards the ErrOverloaded /
# ErrDraining chains the replica layer classifies with errors.Is — then the
# whole tree.
go run ./cmd/skalla-lint -timing ./internal/transport/... ./internal/core/... ./internal/site/...
go run ./cmd/skalla-lint -timing ./...

echo "== tests (race) =="
go test -race ./...

echo "== stress (race, 20 runs of the concurrent layers) =="
# Every other gate runs each test once, which is how a drain race failing
# one run in two was merged. The layers with real concurrency — sockets,
# fan-out, parallel site evaluation and the kernel workers it fans out to
# — must be green twenty times over.
# The kernel's key groupings are built once under a lock and then read
# without it by every worker of every concurrent request. The run includes
# TestKernelsWarmAllocateNothing: on one goroutine, a warm Filter and
# EvalEach over proven selections allocate nothing. It also includes the
# shipped-frame tests (TestShippedFrames, TestMalformedXFailsBeforeAnyCall),
# TestHedgedShippingRound, where a hedge and its primary send the one frame
# a round encoded concurrently, TestClosedReplicaSetStaysPut,
# TestReconnectorCloseIsFinal (a closed retry layer dials nothing),
# TestChaosScheduleSpansRedials (a replica's fault schedule spans the
# connections its retry layer redials), TestPooledMergesInvisible
# (concurrent executions and relays share the coordinator's pooled merge
# memory, and none can tell) and TestPooledChainFinalsIsolated (fused
# requests whose later rounds read finals of different shapes alternate
# on one engine's pooled chains, whose finals buffer neither may see). It
# also includes TestPooledChainsInvisible's concurrent reload: goroutines
# send a mix of request shapes, each prepared once and then run from the
# shape's kept chain, while the detail relation is replaced under them by
# one where a column changed kind, and every reply is a fresh engine's
# over one relation or the other.
go test -race -count=20 ./internal/transport ./internal/core ./internal/site ./internal/gmdj ./internal/vec
# Admission lives in skalla's QueryService; its tests ride the same gate,
# and so do the checks that queries sharing one cluster each count
# exactly their own bytes and never wait on a sibling's held call, the
# relay-tree shapes, whose relays fan out concurrently to their leaves, and
# the replica layer's failover under hedging and placement on every replica,
# served hedges, whose losing pooled clients are lent again, a connection
# lost between rounds and redialed by the retry layer under its pool,
# clients, a replica armed with a fault schedule among them, that stay
# closed once closed, O1's site filter past 2^53, and concurrent served
# queries, whose requests share each site engine's pooled chains (their
# kernel buffers, slabs and match counts) end to end.
go test -race -count=20 -run '^(TestAdmission|TestSharedClusterExactBytes|TestSharedClusterCancelIsolation|TestTreeCluster|TestConnectWithHedgedDeadPrimary|TestPlacementReachesEveryReplica|TestServeHedgesAttributed|TestRoundBoundaryConnectionLoss|TestDeployedClientCloseIsFinal|TestSiteFilterPast2To53|TestServeConcurrentE2E)' ./skalla

echo "== fuzz smoke (expression parser) =="
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/expr

echo "== fuzz smoke (agg spec parser) =="
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/agg

echo "== fuzz smoke (slab lane folds vs per-value Add) =="
go test -run '^$' -fuzz FuzzSlabFold -fuzztime 10s ./internal/agg

echo "== fuzz smoke (slab lanes framed vs boxed states) =="
go test -run '^$' -fuzz 'FuzzSlabFrame$' -fuzztime 10s ./internal/agg

echo "== fuzz smoke (reply lanes merged typed vs per-value Merge) =="
go test -run '^$' -fuzz FuzzSlabFrameMerge -fuzztime 10s ./internal/agg

echo "== fuzz smoke (sql parser) =="
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/sql

echo "== fuzz smoke (vec vs row differential) =="
go test -run '^$' -fuzz FuzzVecVsRow -fuzztime 10s ./internal/gmdj

echo "== fuzz smoke (distinct kernel vs DistinctProject) =="
go test -run '^$' -fuzz FuzzDistinct -fuzztime 10s ./internal/vec

echo "== fuzz smoke (compiled filters vs row predicates) =="
go test -run '^$' -fuzz FuzzFilter -fuzztime 10s ./internal/vec

echo "== fuzz smoke (relation frame codec) =="
go test -run '^$' -fuzz FuzzFrame -fuzztime 10s ./internal/relation

echo "== fuzz smoke (message envelope codec) =="
go test -run '^$' -fuzz FuzzEnvelope -fuzztime 10s ./internal/transport

echo "== examples =="
for ex in quickstart ipflows tpcr cube multitier sql; do
    echo "-- examples/$ex"
    go run "./examples/$ex" > /dev/null
done

echo "== quick bench pass =="
# BenchmarkHedgedTail is left out: its p99 bound needs a quiet machine,
# and CI runs it as a step of its own.
# HandleFused also matches BenchmarkHandleFusedFiltered, the fused request
# under a served WHERE clause's base filter; HandleChained is one site's
# share of the scan_lowcard workload's fused two-round chain; HandleShipped
# is one site's states-only reply to a shipped 2 000-group base, framed
# from its slab lanes (a shuffle_highcard step); Grouping prices
# a key grouping's clustered view, built once per load; RoundTrip is one
# call in process (over a pipe) and over loopback TCP, the same client and
# server code on both. Synchronize also matches BenchmarkSynchronizeFused,
# a fused step's keyed replies, as a site client delivers them, merged by
# key with the site-disjoint claim unchecked and checked, each boxing only
# K from its frame, and skewed: fragments of 46 to 56 groups, the smallest
# first; KeyIndex is the open-addressed key table every keyed
# merge, distinct projection and key grouping resolves keys through;
# PartitionAttr is the catalog's partition proof, memoized and cold;
# DecodeFrame is a states-only reply read boxed (ReadFrame) and checked
# unboxed (DecodeFrame), the form a client decodes every reply in;
# DecodeShippedX the check of a shipped X's front-coded names, which a
# site runs on every request that ships one; SlabMerge is one state merged
# by value, and MergeLane one 2 000-group INT or FLOAT state lane of a
# reply merged by position, in one pass and value by value;
# ParseSpec is the workloads' aggregate specs, which a site parses once
# per request shape it prepares, SQLParse three statements of the serve
# mix, PoolCall
# one pooled call, and ShipX a round's 2 000-row X framed for 4 and for 8
# sites, once per round, and for 8 filtered sites, each from its own rows.
# PingLatency is one empty exchange over loopback TCP: the fixed cost of a
# message, what a connection's reader and reused body buffer keep small.
go test -run '^$' -bench 'Filter|Grouping|ChainVec|HandleFused|HandleChained|HandleShipped|SortKeys|SlabExtremum|SlabMerge|MergeLane|Synchronize|KeyIndex|RoundTrip|PartitionAttr|DecodeFrame|DecodeShippedX|ParseSpec|SQLParse|PoolCall|ShipX|PingLatency' -benchtime 1x ./internal/vec ./internal/gmdj ./internal/site ./internal/relation ./internal/agg ./internal/core ./internal/transport ./internal/catalog ./internal/sql > /dev/null

echo "== observability smoke =="
./scripts/obs_smoke.sh

echo "== non-test LOC ratchet (ROADMAP item 3; ceiling in scripts/loc.max) =="
sh scripts/loc.sh -check

echo "== wire-bytes ratchet (ceilings in scripts/wire.max) =="
sh scripts/wire.sh

echo "all checks passed"
