package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
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
