package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/transport"
)

func newTestCatalog(nSites int) *catalog.Catalog {
	ids := make([]string, nSites)
	for i := range ids {
		ids[i] = fmt.Sprintf("site%d", i)
	}
	return catalog.New(ids...)
}

// chaosCluster builds an in-process cluster whose every site's replica
// is armed with a fault schedule, rows split round-robin, each
// call sent once. It returns the schedules (indexed by site) for
// scripting faults and the whole relation for computing expected results.
func chaosCluster(t *testing.T, rows []relation.Row, nSites int) (*Coordinator, []*transport.Chaos, *relation.Relation) {
	t.Helper()
	return armedCluster(t, rows, nSites, 0)
}

// retryingChaosCluster is chaosCluster whose site clients try each call
// attempts times, so transient injected faults are retried like real
// transport failures.
func retryingChaosCluster(t *testing.T, rows []relation.Row, nSites int, attempts int) (*Coordinator, []*transport.Chaos, *relation.Relation) {
	t.Helper()
	return armedCluster(t, rows, nSites, attempts)
}

func armedCluster(t *testing.T, rows []relation.Row, nSites int, attempts int) (*Coordinator, []*transport.Chaos, *relation.Relation) {
	t.Helper()
	whole := relation.New(flowSchema())
	whole.Rows = rows
	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	for i, row := range rows {
		parts[i%nSites].Rows = append(parts[i%nSites].Rows, row)
	}
	chaos := make([]*transport.Chaos, nSites)
	clients := make([]transport.Client, nSites)
	for i := 0; i < nSites; i++ {
		id := fmt.Sprintf("site%d", i)
		eng := site.NewEngine(id)
		eng.Load("flow", parts[i])
		chaos[i] = transport.NewChaos()
		clients[i] = siteClient(t, transport.SiteSpec{ID: id,
			Replicas:   []transport.Replica{{Handler: eng, Chaos: chaos[i]}},
			Resilience: transport.Resilience{Attempts: attempts}})
	}
	return NewCoordinator(clients...), chaos, whole
}

// injectN queues n copies of f for op on ch.
func injectN(ch *transport.Chaos, op transport.Op, n int, f transport.Fault) {
	for i := 0; i < n; i++ {
		ch.Inject(op, f)
	}
}

// TestExecuteSurvivesOneShotSiteErrors: transient transport failures on
// several sites mid-query are absorbed by retries; the result is
// identical to the no-fault run.
func TestExecuteSurvivesOneShotSiteErrors(t *testing.T) {
	rows := testRows(240, 3)
	q := example1()
	coord, chaos, whole := retryingChaosCluster(t, rows, 3, 3)
	// One-shot failures scattered across ops, rounds and sites: the schema
	// fetch, a base-round call (site1's first evaluation), and two calls of
	// the next round (its third and fourth, the base call's retry between).
	chaos[0].Inject(transport.OpRelInfo, transport.Fault{Err: transport.ErrInjected})
	for _, nth := range []int{1, 3, 4} {
		chaos[1].InjectAt(transport.OpEvalRounds, nth, transport.Fault{Err: transport.ErrInjected})
	}
	chaos[2].InjectAt(transport.OpEvalRounds, 2, transport.Fault{Err: transport.ErrInjected})

	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: newTestCatalog(3)})
	if err != nil {
		t.Fatalf("query under one-shot faults: %v", err)
	}
	assertSameRelation(t, "one-shot faults", got, want, q.Keys())
	if stats.Partial() {
		t.Errorf("retried faults must not degrade the result: lost %v", stats.LostSites())
	}
	if chaos[1].Injected() != 3 {
		t.Errorf("site1 injected %d faults, want 3", chaos[1].Injected())
	}
}

// TestReplicaFailoverMidQuery: a logical site whose primary endpoint dies
// after the base round transparently fails over to its replica; the
// multi-round query completes with results identical to the no-fault run.
func TestReplicaFailoverMidQuery(t *testing.T) {
	rows := testRows(240, 4)
	q := example1()
	nSites := 3
	whole := relation.New(flowSchema())
	whole.Rows = rows
	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	for i, row := range rows {
		parts[i%nSites].Rows = append(parts[i%nSites].Rows, row)
	}

	primary := transport.NewChaos()
	clients := make([]transport.Client, nSites)
	for i := 0; i < nSites; i++ {
		id := fmt.Sprintf("site%d", i)
		replica := func() *site.Engine {
			eng := site.NewEngine(id)
			eng.Load("flow", parts[i].Clone())
			return eng
		}
		if i != 1 {
			clients[i] = localClient(t, id, replica())
			continue
		}
		// Site 1 is a replica set: the primary answers the base round (its
		// first evaluation) and then fails every evaluation call; the
		// secondary holds the same partition.
		for nth := 2; nth <= 10; nth++ {
			primary.InjectAt(transport.OpEvalRounds, nth, transport.Fault{Err: transport.ErrInjected})
		}
		clients[i] = siteClient(t, transport.SiteSpec{ID: id,
			Replicas:   []transport.Replica{{Handler: replica(), Chaos: primary}, {Handler: replica()}},
			Resilience: transport.Resilience{Attempts: 2}})
	}
	coord := NewCoordinator(clients...)

	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: newTestCatalog(nSites)})
	if err != nil {
		t.Fatalf("query with mid-query replica failover: %v", err)
	}
	assertSameRelation(t, "replica failover", got, want, q.Keys())
	if stats.Partial() {
		t.Errorf("failover must not degrade the result: lost %v", stats.LostSites())
	}
	// The base round, then two failed attempts before the failover; the
	// secondary stays current for the rest of the query.
	if got := primary.Calls(); got != 3 {
		t.Errorf("primary calls = %d, want 3 (sticky failover to the replica)", got)
	}
}

// TestDeadlineExpiryOnHungSite: a site that accepts a round request and
// never answers cannot stall the query — the per-call timeout expires and
// the query fails promptly (strict mode) naming the site.
func TestDeadlineExpiryOnHungSite(t *testing.T) {
	rows := testRows(120, 5)
	coord, chaos, _ := chaosCluster(t, rows, 3)
	coord.CallTimeout = 50 * time.Millisecond
	chaos[2].Inject(transport.OpEvalRounds, transport.Fault{Hang: true})

	start := time.Now()
	_, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: newTestCatalog(3)})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !strings.Contains(err.Error(), "site2") {
		t.Errorf("error does not name the hung site: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("hung site stalled the query for %v", elapsed)
	}
}

// TestFirstErrorCancelsSiblings: in strict mode the first site failure
// cancels the in-flight calls of its siblings — here a sibling hung with
// no timeout at all, which only first-error cancellation can release.
func TestFirstErrorCancelsSiblings(t *testing.T) {
	rows := testRows(120, 6)
	coord, chaos, _ := chaosCluster(t, rows, 3)
	chaos[0].Inject(transport.OpEvalRounds, transport.Fault{Err: transport.ErrInjected})
	chaos[1].Inject(transport.OpEvalRounds, transport.Fault{Hang: true})

	done := make(chan error, 1)
	go func() {
		_, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: newTestCatalog(3)})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected failure")
		}
		// The root cause, not the cancellation fallout, is reported.
		if !errors.Is(err, transport.ErrInjected) {
			t.Errorf("err = %v, want the injected root cause", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first-error cancellation did not release the hung sibling")
	}
}

// TestDegradedPartialResult: with AllowPartial, losing a site (and all
// its retries) yields a partial result covering the surviving sites, with
// the loss named per round in ExecStats.
func TestDegradedPartialResult(t *testing.T) {
	rows := testRows(240, 7)
	q := example1()
	nSites := 3
	coord, chaos, _ := chaosCluster(t, rows, nSites)
	coord.AllowPartial = true
	injectN(chaos[2], transport.OpAny, 1000, transport.Fault{Err: transport.ErrInjected}) // site2 is down for the whole query

	// Expected: the centralized evaluation over the surviving partitions.
	survivors := relation.New(flowSchema())
	for i, row := range rows {
		if i%nSites != 2 {
			survivors.Rows = append(survivors.Rows, row)
		}
	}
	want, err := gmdj.EvalQuery(survivors, q)
	if err != nil {
		t.Fatal(err)
	}

	got, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: newTestCatalog(nSites)})
	if err != nil {
		t.Fatalf("degraded query failed instead of returning a partial result: %v", err)
	}
	assertSameRelation(t, "degraded", got, want, q.Keys())

	if !stats.Partial() {
		t.Fatal("stats do not mark the result partial")
	}
	if lost := stats.LostSites(); len(lost) != 1 || lost[0] != "site2" {
		t.Errorf("LostSites = %v, want [site2]", lost)
	}
	if len(stats.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	for _, r := range stats.Rounds {
		if lost := r.Lost(); len(lost) != 1 || lost[0].Site != "site2" || lost[0].Err == "" {
			t.Errorf("round %s: Lost = %v, want site2 with an error", r.Name, lost)
		}
		if len(r.Responded()) != 2 {
			t.Errorf("round %s: Responded = %v, want the two survivors", r.Name, r.Responded())
		}
	}
	if cov := stats.Coverage(); !strings.Contains(cov, "site2") || !strings.Contains(cov, "2/3") {
		t.Errorf("coverage rendering: %q", cov)
	}
	if !strings.Contains(stats.String(), "PARTIAL RESULT") {
		t.Error("stats table does not flag the partial result")
	}
}

// TestDegradedAllSitesLost: degraded mode still fails when nothing
// survives — a partial result needs at least one fragment.
func TestDegradedAllSitesLost(t *testing.T) {
	rows := testRows(60, 8)
	coord, chaos, _ := chaosCluster(t, rows, 2)
	coord.AllowPartial = true
	for _, ch := range chaos {
		injectN(ch, transport.OpEvalRounds, 1000, transport.Fault{Err: transport.ErrInjected})
	}
	_, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: newTestCatalog(2)})
	if err == nil {
		t.Fatal("query with zero surviving sites must fail even in degraded mode")
	}
	// The sites' failure stays inspectable through the "all sites lost"
	// error, as it does through a strict-mode failure.
	if !errors.Is(err, transport.ErrInjected) || !strings.Contains(err.Error(), "all sites lost") {
		t.Errorf("err = %v, want all sites lost wrapping the injected failure", err)
	}
}

// TestStrictModeStillFails: without AllowPartial a lost site aborts the
// query (the pre-existing strict behavior is the default).
func TestStrictModeStillFails(t *testing.T) {
	rows := testRows(60, 9)
	coord, chaos, _ := chaosCluster(t, rows, 3)
	injectN(chaos[1], transport.OpEvalRounds, 1000, transport.Fault{Err: transport.ErrInjected})
	_, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: newTestCatalog(3)})
	if !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
}

// TestExecuteContextCancel: cancelling the caller's context aborts the
// whole execution promptly, even with a site hung and no timeouts set.
func TestExecuteContextCancel(t *testing.T) {
	rows := testRows(120, 10)
	coord, chaos, _ := chaosCluster(t, rows, 3)
	chaos[0].Inject(transport.OpEvalRounds, transport.Fault{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := coord.Run(ctx, example1(), "flow", Egil{Catalog: newTestCatalog(3)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel did not abort the execution")
	}
}
