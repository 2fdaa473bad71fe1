package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
)

// TestHedgedQueryOverTCP is the end-to-end tail-tolerance check: a full
// GMDJ query over real TCP servers where one site's primary replica
// straggles on every round call. The hedger races a clean replica of the
// same partition and must (a) produce exactly the centralized answer —
// duplicated round evaluation is idempotent — (b) beat the injected
// straggler latency, and (c) surface the hedges in the execution stats.
func TestHedgedQueryOverTCP(t *testing.T) {
	rows := testRows(240, 5)
	q := example1()
	nSites := 3
	const straggle = 150 * time.Millisecond

	whole := relation.New(flowSchema())
	whole.Rows = rows
	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	for i, row := range rows {
		parts[i%nSites].Rows = append(parts[i%nSites].Rows, row)
	}

	sink := obs.New()
	clients := make([]transport.Client, nSites)
	for i := 0; i < nSites; i++ {
		id := fmt.Sprintf("site%d", i)
		eng := site.NewEngine(id)
		eng.Load("flow", parts[i])
		srv := transport.NewServer(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })

		// Site 1 is a replica set over one shared server: the primary
		// connection straggles on every round call, the secondary is
		// clean. Both hit the same engine, which evaluates a duplicated
		// round request again: rounds are pure functions of the request.
		spec := transport.SiteSpec{ID: id, Replicas: []transport.Replica{{Addr: addr}}, Obs: sink}
		if i == 1 {
			primary := transport.NewChaos()
			injectN(primary, transport.OpEvalRounds, 1000, transport.Fault{Delay: straggle})
			spec.Replicas = []transport.Replica{
				{Addr: addr, Chaos: primary},
				{Addr: addr},
			}
			spec.Resilience = transport.Resilience{Hedge: true, HedgeDelay: 10 * time.Millisecond}
		}
		s, err := transport.NewSite(spec)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = s.Client()
	}
	coord := NewCoordinator(clients...)
	defer func() {
		for _, cl := range clients {
			cl.Close() // the hedger closes both of site 1's connections
		}
	}()

	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: newTestCatalog(nSites)})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged query over TCP: %v", err)
	}
	assertSameRelation(t, "hedged TCP query", got, want, q.Keys())
	if stats.Partial() {
		t.Errorf("hedging must not degrade the result: lost %v", stats.LostSites())
	}

	hedges, wins := sink.Metrics.CounterValue("transport.hedges"), sink.Metrics.CounterValue("transport.hedge_wins")
	if hedges < 1 {
		t.Errorf("hedges = %d, want at least 1 against a %s straggler", hedges, straggle)
	}
	if wins < 1 {
		t.Errorf("hedge wins = %d, want at least 1 (the clean replica must beat the straggler)", wins)
	}
	if got := roundSites(stats, (*RoundStats).Hedged); len(got) == 0 || got[0] != "site1" {
		t.Errorf("hedged sites = %v, want [site1]", got)
	}
	// Every round call on site 1's primary is delayed by 150ms; with the
	// hedge racing after 10ms, the query must finish well under the
	// serial straggler cost. Generous bound to stay robust on slow CI.
	if limit := time.Duration(len(stats.Rounds)) * straggle; elapsed >= limit {
		t.Errorf("hedged query took %s, want < %s (hedges should hide the straggler)", elapsed, limit)
	}
}

// The tail gate: the group reduction query of Figs. 2 and 4, run
// tailQueries times over sites whose primary replica straggles on a seeded
// fraction of its calls, once unhedged and once hedged against a clean
// replica of the same engine.
const (
	tailSites      = 4
	tailQueries    = 40
	tailP          = 0.12 // per-call straggler probability
	tailDelay      = 50 * time.Millisecond
	tailMinSpeedup = 2.0
)

var (
	tailData   = tpcr.Config{Rows: 8000, Customers: 400, Seed: 1}
	tailHedged = transport.Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond, RetryBudget: 0.5, RetryBudgetBurst: 20}
)

// BenchmarkHedgedTail fails if a hedged result differs by one byte from
// the unhedged one (a duplicated round evaluation is pure), or if hedging
// does not cut the p99 query latency by tailMinSpeedup. It is a benchmark
// to be run alone, not a test: under a parallel go test ./... the
// machine's load moves the p99 of 40 queries too far for that bound.
//
//	go test -run '^$' -bench '^BenchmarkHedgedTail$' -benchtime 1x ./internal/core
func BenchmarkHedgedTail(b *testing.B) {
	engines := make([]*site.Engine, tailSites)
	ids := make([]string, tailSites)
	for i := range engines {
		ids[i] = fmt.Sprintf("site%d", i)
		part, err := tpcr.GeneratePartition(tailData, i, tailSites)
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = site.NewEngine(ids[i])
		engines[i].Load("tpcr", part)
	}
	cat := catalog.New(ids...)
	if err := tpcr.FillCatalog(cat, ids, tailData); err != nil {
		b.Fatal(err)
	}
	q := gmdj.Query{Base: gmdj.BaseDef{Cols: []string{"CustName"}}, MDs: []gmdj.MD{
		md("F.CustName = B.CustName", "count(*) AS cnt1", "avg(F.Quantity) AS avg1"),
		md("F.CustName = B.CustName AND F.Quantity >= B.avg1", "count(*) AS cnt2", "avg(F.ExtendedPrice) AS avg2"),
	}}
	for i := 0; i < b.N; i++ {
		want, unhedged := tailRun(b, engines, cat, q, nil, nil)
		sink := obs.New()
		_, hedged := tailRun(b, engines, cat, q, want, sink)
		speedup := float64(unhedged) / float64(hedged)
		b.ReportMetric(float64(unhedged)/1e6, "unhedged-p99-ms")
		b.ReportMetric(float64(hedged)/1e6, "hedged-p99-ms")
		b.ReportMetric(speedup, "p99-speedup")
		b.ReportMetric(float64(sink.Metrics.CounterValue("transport.hedges")), "hedges")
		b.ReportMetric(float64(sink.Metrics.CounterValue("transport.hedge_wins")), "hedge-wins")
		b.ReportMetric(float64(sink.Metrics.CounterValue("transport.budget_denied")), "budget-denied")
		if speedup < tailMinSpeedup {
			b.Fatalf("hedged p99 %s against unhedged %s: speedup %.2fx, want at least %.1fx", hedged, unhedged, speedup, tailMinSpeedup)
		}
	}
}

// tailRun plans q once and executes it tailQueries times over the engines,
// each behind a primary replica armed with the site's seeded straggler
// schedule, and behind a clean second replica when sink is not nil (the
// hedged variant). Every execution, the planning run's included, must
// answer want to the byte; a nil want is the planning run's answer. It
// returns that answer and the nearest-rank p99 of the executions' wall
// latencies.
func tailRun(b *testing.B, engines []*site.Engine, cat *catalog.Catalog, q gmdj.Query, want []byte, sink *obs.Obs) ([]byte, time.Duration) {
	clients := make([]transport.Client, len(engines))
	for i, eng := range engines {
		primary := transport.NewChaos()
		primary.SetTailLatency(tailData.Seed+int64(i), tailP, tailDelay)
		spec := transport.SiteSpec{ID: eng.ID(), Replicas: []transport.Replica{{Handler: eng, Chaos: primary}}}
		if sink != nil {
			spec.Replicas = append(spec.Replicas, transport.Replica{Handler: eng})
			spec.Resilience, spec.Budget, spec.Obs = tailHedged, tailHedged.NewBudget(sink), sink
		}
		s, err := transport.NewSite(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("client stack %s: %s", s.ID(), s)
		clients[i] = s.Client()
		defer clients[i].Close() // waits out a losing hedge
	}
	coord := NewCoordinator(clients...)
	ctx := context.Background()
	rel, _, plan, err := coord.Run(ctx, q, "tpcr", Egil{Catalog: cat, Options: DefaultOptions})
	if err != nil {
		b.Fatal(err)
	}
	if got := sortedFrame(b, rel, q.Keys()); want == nil {
		want = got
	} else if !bytes.Equal(got, want) {
		b.Fatal("planning run: hedged result differs from the unhedged answer")
	}
	latencies := make([]time.Duration, tailQueries)
	for i := range latencies {
		start := time.Now()
		got, _, err := coord.Execute(ctx, plan)
		latencies[i] = time.Since(start)
		if err != nil {
			b.Fatalf("execution %d: %v", i, err)
		}
		if !bytes.Equal(sortedFrame(b, got, q.Keys()), want) {
			b.Fatalf("execution %d (hedged %t): result differs from the unhedged answer", i, sink != nil)
		}
	}
	slices.Sort(latencies)
	return want, latencies[int(math.Ceil(0.99*tailQueries))-1]
}
