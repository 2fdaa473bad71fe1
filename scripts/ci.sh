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
# without it by every worker of every concurrent request.
go test -race -count=20 ./internal/transport ./internal/core ./internal/site ./internal/gmdj ./internal/vec
# Admission lives in skalla's QueryService; its tests ride the same gate,
# and so do the checks that queries sharing one cluster each count
# exactly their own bytes and never wait on a sibling's held call, the
# relay-tree shapes, whose relays fan out concurrently to their leaves, and
# the replica layer's failover under hedging and placement on every replica.
go test -race -count=20 -run '^(TestAdmission|TestSharedClusterExactBytes|TestSharedClusterCancelIsolation|TestTreeCluster|TestConnectWithHedgedDeadPrimary|TestPlacementReachesEveryReplica)' ./skalla

echo "== fuzz smoke (agg spec parser) =="
go test -run '^$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/agg

echo "== fuzz smoke (slab lane folds vs per-value Add) =="
go test -run '^$' -fuzz FuzzSlabFold -fuzztime 10s ./internal/agg

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

echo "== examples =="
for ex in quickstart ipflows tpcr cube multitier sql; do
    echo "-- examples/$ex"
    go run "./examples/$ex" > /dev/null
done

echo "== quick bench pass =="
go test -run xxx -bench . -benchtime 1x . > /dev/null
# HandleFused also matches BenchmarkHandleFusedFiltered, the fused request
# under a served WHERE clause's base filter; HandleChained is one site's
# share of the scan_lowcard workload's fused two-round chain; Grouping prices
# a key grouping's clustered view, built once per load; RoundTrip is one
# call in process (over a pipe) and over loopback TCP, the same client and
# server code on both. Synchronize also matches BenchmarkSynchronizeFused,
# a fused step's keyed replies, as a site client delivers them, merged by
# key and folded by position, each boxing only K from its frame;
# PartitionAttr is the catalog's partition proof, memoized and cold;
# DecodeFrame is a states-only reply read boxed (ReadFrame) and checked
# unboxed (DecodeFrame), the form a client decodes every reply in.
go test -run '^$' -bench 'Filter|Grouping|ChainVec|HandleFused|HandleChained|SortKeys|SlabExtremum|Synchronize|RoundTrip|PartitionAttr|DecodeFrame' -benchtime 1x ./internal/vec ./internal/gmdj ./internal/site ./internal/relation ./internal/agg ./internal/core ./internal/transport ./internal/catalog > /dev/null

echo "== observability smoke =="
./scripts/obs_smoke.sh

echo "== non-test LOC ratchet (ROADMAP item 3; ceiling in scripts/loc.max) =="
sh scripts/loc.sh -check

echo "== wire-bytes ratchet (ceilings in scripts/wire.max) =="
sh scripts/wire.sh

echo "all checks passed"
