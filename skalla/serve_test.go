package skalla

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/site"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/value"
)

// serveQueries is the concurrent workload: every SQL shape the dialect
// supports, all over the shared flow relation.
var serveQueries = []string{
	"SELECT SourceAS, DestAS, count(*) AS cnt, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS, DestAS",
	"SELECT SourceAS, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS ORDER BY bytes DESC",
	"SELECT SourceAS, DestAS, sum(NumBytes) AS bytes FROM flow CUBE BY SourceAS, DestAS",
	"SELECT DestAS, count(*) AS cnt FROM flow WHERE NumBytes >= 100 GROUP BY DestAS",
	"SELECT SourceAS, count(*) AS cnt FROM flow GROUP BY SourceAS HAVING cnt > 1",
	"SELECT DestAS, avg(NumBytes) AS avgb FROM flow GROUP BY DestAS",
}

// assertIdentical compares two results byte-for-byte: same schema, same
// row order, same values (NULL == NULL). Callers are responsible for
// having both sides in deterministic order first.
func assertIdentical(t *testing.T, label string, got, want *Relation) {
	t.Helper()
	if gn, wn := fmt.Sprint(got.Schema.Names()), fmt.Sprint(want.Schema.Names()); gn != wn {
		t.Fatalf("%s: schema %s, want %s", label, gn, wn)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !value.Equal(got.Rows[i][j], want.Rows[i][j]) &&
				!(got.Rows[i][j].IsNull() && want.Rows[i][j].IsNull()) {
				t.Errorf("%s: row %d col %d: %v != %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// serveBaseline computes the serial reference result for q, in the same
// deterministic order the query service promises (results without an
// ORDER BY sorted on every output column).
func serveBaseline(t *testing.T, cluster *Cluster, q string) *Relation {
	t.Helper()
	rel, err := cluster.SQL(q, AllOptimizations)
	if err != nil {
		t.Fatalf("baseline %q: %v", q, err)
	}
	if !strings.Contains(q, "ORDER BY") {
		if err := rel.SortBy(rel.Schema.Names()...); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// TestServeConcurrentE2E is the acceptance scenario: 12 simultaneous
// queries over shared TCP sites, with a chaos-injected transport fault on
// one site's first pooled connection and one site's primary replica
// draining mid-wave. Every admitted query must come back byte-exact
// against its serial baseline — never a hang, never a wrong answer.
func TestServeConcurrentE2E(t *testing.T) {
	testutil.CheckGoroutines(t)
	parts, _ := flowParts(3)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		// site2 runs two replicas: its primary drains mid-test and the
		// pooled reconnectors must fail over to the secondary.
		n := 1
		if i == 2 {
			n = 2
		}
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], n)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	o := obs.New()
	cluster, err := ConnectWith(ConnectConfig{
		Sites: sites,
		// Replays turns recovery on: requests carry (epoch, round) tags.
		Settings:   Settings{CallTimeout: 10 * time.Second, Replays: 2, Obs: o},
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Serial baselines before any chaos or draining.
	baselines := make([]*Relation, len(serveQueries))
	for i, q := range serveQueries {
		baselines[i] = serveBaseline(t, cluster, q)
	}

	// Chaos: the first pooled connection to site1 fails its first
	// evalRounds fan-out with a transport error; the coordinator's replay
	// budget must absorb it via the (epoch, round) dedup path.
	var chaosMu sync.Mutex
	chaosDials := 0
	cluster.specs[1].Replicas[0].Chaos = func(cl transport.Client) *transport.Chaos {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		ch := transport.NewChaos(cl, int64(chaosDials))
		if chaosDials == 0 {
			ch.FailNext(transport.OpEvalRounds, 1)
		}
		chaosDials++
		return ch
	}

	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 8, QueueDepth: 16, Backpressure: Backpressure{SiteInflight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const waves = 2 // 12 queries, 8 running at once, 4 queued
	total := waves * len(serveQueries)
	results := make([]*Relation, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Query(context.Background(), serveQueries[i%len(serveQueries)])
		}(i)
	}
	// Drain site2's primary while the wave is in flight: in-flight
	// requests finish, subsequent ones get a CodeDraining shed and fail
	// over to the secondary replica.
	if err := servers[2][0].Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for i := range results {
		q := serveQueries[i%len(serveQueries)]
		if errs[i] != nil {
			t.Fatalf("query %d (%q): %v", i, q, errs[i])
		}
		assertIdentical(t, fmt.Sprintf("query %d", i), results[i], baselines[i%len(serveQueries)])
	}

	if got := o.Metrics.CounterValue("sched.admitted"); got != int64(total) {
		t.Errorf("sched.admitted = %d, want %d", got, total)
	}
	if got := o.Metrics.CounterValue("sched.completed"); got != int64(total) {
		t.Errorf("sched.completed = %d, want %d", got, total)
	}
	if got := o.Metrics.CounterValue("serve.queries_ok"); got != int64(total) {
		t.Errorf("serve.queries_ok = %d, want %d", got, total)
	}
	// Recovery was enabled, so every execution announced its completion
	// to the sites for dedup-cache eviction.
	if got := o.Metrics.CounterValue("coord.epoch_done_acks"); got == 0 {
		t.Error("no epoch-done acks recorded: completed epochs never evicted site-side")
	}
}

// TestServeAdmissionFailFast: with one execution slot and no queue, a
// second query is refused immediately with the typed admission error —
// and admitted again once the slot frees.
func TestServeAdmissionFailFast(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 1, QueueDepth: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.Query(context.Background(), serveQueries[0])
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("saturated query error = %v, want ErrAdmission", err)
	}
	// A malformed query must be refused as a parse error even under
	// saturation: parsing happens before admission and burns no slot.
	_, err = svc.Query(context.Background(), "SELECT FROM nope")
	if err == nil || errors.Is(err, ErrAdmission) {
		t.Fatalf("parse error while saturated = %v, want a parse failure", err)
	}
	release()
	got, err := svc.Query(context.Background(), serveQueries[0])
	if err != nil {
		t.Fatalf("query after release: %v", err)
	}
	assertIdentical(t, "after release", got, serveBaseline(t, cluster, serveQueries[0]))
}

// TestServeQueueTimeout: a queued query waits no longer than QueueTimeout
// for a slot, then fails with the typed admission error.
func TestServeQueueTimeout(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{
		MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	release, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = svc.Query(context.Background(), serveQueries[0])
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("queued query error = %v, want ErrAdmission", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("queue timeout took %v", waited)
	}
}

// TestServeSiblingCancellationIsolation is the cancellation regression:
// query A hangs on a chaos fault and is cancelled; sibling query B runs
// concurrently over the same pools and must complete byte-exact. A's
// cancellation must surface as context.Canceled, not tear down B.
func TestServeSiblingCancellationIsolation(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, UseTCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	baseline := serveBaseline(t, cluster, serveQueries[0])

	// The first pooled connection to site 0 hangs its first evalRounds
	// until the borrowing query's context is cancelled.
	chaosCh := make(chan *transport.Chaos, 1)
	var dialMu sync.Mutex
	dialed := false
	cluster.specs[0].Replicas[0].Chaos = func(cl transport.Client) *transport.Chaos {
		dialMu.Lock()
		defer dialMu.Unlock()
		ch := transport.NewChaos(cl, 1)
		if !dialed {
			dialed = true
			ch.HangNext(transport.OpEvalRounds)
			chaosCh <- ch
		}
		return ch
	}

	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 4, Backpressure: Backpressure{SiteInflight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctxA, serveQueries[0])
		errA <- err
	}()

	// Wait until A is demonstrably hung inside the chaos fault.
	ch := <-chaosCh
	deadline := time.Now().Add(5 * time.Second)
	for ch.Injected() == 0 {
		select {
		case err := <-errA:
			t.Fatalf("query A finished before the injected hang: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("query A never reached the injected hang")
		}
		time.Sleep(time.Millisecond)
	}

	// B runs to completion while A hangs on a sibling connection.
	got, err := svc.Query(context.Background(), serveQueries[0])
	if err != nil {
		t.Fatalf("sibling query B: %v", err)
	}
	assertIdentical(t, "sibling B", got, baseline)

	cancelA()
	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query A error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelling query A did not unblock it")
	}

	// The pools must still be healthy: a fresh query succeeds.
	got, err = svc.Query(context.Background(), serveQueries[0])
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	assertIdentical(t, "after cancellation", got, baseline)
}

// TestServeHandlerHTTP exercises the HTTP surface: result shape, method
// handling, and the error → status-code classification.
func TestServeHandlerHTTP(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()

	do := func(method, target, body string) *httptest.ResponseRecorder {
		var r *http.Request
		if body != "" {
			r = httptest.NewRequest(method, target, strings.NewReader(body))
		} else {
			r = httptest.NewRequest(method, target, nil)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	decodeErr := func(w *httptest.ResponseRecorder) errorJSON {
		var e errorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("error body %q: %v", w.Body.String(), err)
		}
		return e
	}

	q := "SELECT SourceAS, sum(NumBytes) AS bytes FROM flow GROUP BY SourceAS"
	w := do(http.MethodGet, "/query?q="+strings.ReplaceAll(q, " ", "+"), "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", w.Code, w.Body.String())
	}
	var res resultJSON
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Cols) != "[SourceAS bytes]" {
		t.Errorf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}

	// POST with the statement as the body returns the identical result.
	w2 := do(http.MethodPost, "/query", q)
	if w2.Code != http.StatusOK || w2.Body.String() != w.Body.String() {
		t.Errorf("POST = %d, body equal = %v", w2.Code, w2.Body.String() == w.Body.String())
	}

	if w := do(http.MethodGet, "/query?q=SELECT+FROM+nope", ""); w.Code != http.StatusBadRequest {
		t.Errorf("parse error status = %d, want 400", w.Code)
	} else if e := decodeErr(w); e.Kind != "parse" {
		t.Errorf("parse error kind = %q", e.Kind)
	}
	if w := do(http.MethodGet, "/query", ""); w.Code != http.StatusBadRequest {
		t.Errorf("empty query status = %d, want 400", w.Code)
	}
	if w := do(http.MethodDelete, "/query", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d, want 405", w.Code)
	}

	// Saturate both slots: the refusal maps to 429 with the typed kind.
	rel1, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := svc.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w = do(http.MethodGet, "/query?q="+strings.ReplaceAll(q, " ", "+"), "")
	rel1()
	rel2()
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429: %s", w.Code, w.Body.String())
	}
	if e := decodeErr(w); e.Kind != "admission" {
		t.Errorf("saturated kind = %q", e.Kind)
	}
}

// TestServeCheckReady: readiness follows site fanout health — strict mode
// needs every site answering, AllowPartial needs one.
func TestServeCheckReady(t *testing.T) {
	parts, _ := flowParts(2)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	strict, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: time.Second},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	partial, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: time.Second, AllowPartial: true},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()

	strictSvc, err := NewQueryService(strict, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer strictSvc.Close()
	partialSvc, err := NewQueryService(partial, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer partialSvc.Close()

	if ok, reason := strictSvc.CheckReady(); !ok {
		t.Fatalf("strict not ready with all sites up: %s", reason)
	}
	if ok, _ := partialSvc.CheckReady(); !ok {
		t.Fatal("partial not ready with all sites up")
	}

	servers[1][0].Close()
	if ok, reason := strictSvc.CheckReady(); ok {
		t.Fatal("strict ready with site1 down")
	} else if !strings.Contains(reason, "site1") {
		t.Errorf("reason %q does not name site1", reason)
	}
	if ok, _ := partialSvc.CheckReady(); !ok {
		t.Fatal("partial not ready with one site still up")
	}
}

// TestServeNoOptimizations: a service built with NoOptimizations serves
// the paper's unoptimized baseline — the zero Options value must not be
// mistaken for "unset" — while a service told nothing gets every
// optimization.
func TestServeNoOptimizations(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	explain := "EXPLAIN " + serveQueries[0]
	for _, tc := range []struct {
		name string
		cfg  ServeConfig
		opts Options
	}{
		{"unset", ServeConfig{}, AllOptimizations},
		{"none", ServeConfig{Opts: &NoOptimizations}, NoOptimizations},
	} {
		svc, err := NewQueryService(cluster, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Query(context.Background(), explain)
		svc.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := cluster.SQL(explain, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, tc.name+" plan", got, want)
	}
	// The two plans differ, so the comparison above can tell them apart.
	all, _ := cluster.SQL(explain, AllOptimizations)
	none, _ := cluster.SQL(explain, NoOptimizations)
	if all.Len() == none.Len() && all.Rows[0][0].String() == none.Rows[0][0].String() {
		t.Fatal("optimized and unoptimized plans render alike; the test proves nothing")
	}
}

// straggler delays every evaluation request by d before handing it to the
// engine, so the replica serving it is a deterministic straggler.
type straggler struct {
	inner transport.Handler
	d     time.Duration
}

func (s straggler) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if req.Op == transport.OpEvalBase || req.Op == transport.OpEvalRounds {
		select {
		case <-time.After(s.d):
		case <-ctx.Done():
		}
	}
	return s.inner.Handle(ctx, req)
}

// TestServeHedgesAttributed drives hedging through the served stack, real
// TCP end to end: two replica servers per site, site1's primary a
// straggler, a fixed hedge delay. One hedger per site sits above the
// per-replica pools, so the hedges are attributed to the served query's
// rounds, the losing pooled connections are discarded as hedge discards,
// and not a result byte differs from the unhedged run.
func TestServeHedgesAttributed(t *testing.T) {
	testutil.CheckGoroutines(t)
	parts, _ := flowParts(2)
	var entries []string
	for i, part := range parts {
		id := fmt.Sprintf("site%d", i)
		eng := site.NewEngine(id)
		eng.Load("flow", part)
		handlers := []transport.Handler{eng, eng}
		if i == 1 {
			handlers[0] = straggler{inner: eng, d: 150 * time.Millisecond}
		}
		addrs := make([]string, len(handlers))
		for j, h := range handlers {
			srv := transport.NewServer(h)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[j] = addr
		}
		entries = append(entries, strings.Join(addrs, "|"))
	}

	serve := func(hedge bool) (*Relation, *obs.Obs, string) {
		sink := obs.New()
		cluster, err := ConnectWith(ConnectConfig{
			Sites:      entries,
			Settings:   Settings{CallTimeout: 10 * time.Second, Obs: sink},
			Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond, Hedge: hedge, HedgeDelay: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		rel, err := svc.Query(context.Background(), serveQueries[0])
		if err != nil {
			t.Fatalf("hedge=%v: %v", hedge, err)
		}
		return rel, sink, svc.Stacks()
	}
	want, _, _ := serve(false)
	got, sink, stacks := serve(true)
	assertIdentical(t, "hedged vs unhedged", got, want)

	if want := "client stack site1: gate(4) > hedge(10ms) > pool(4) > retry(2,1ms) > tcp " + entries[1] + "\n"; !strings.HasSuffix(stacks, want) {
		t.Errorf("served stacks:\n%swant the last line to be\n%s", stacks, want)
	}
	// The served query's statistics (its /profiles entry) name the hedged
	// site on the rounds that raced.
	var profiles []struct {
		Rounds []struct {
			Hedged []string `json:"hedged"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal(sink.Profiles.EncodeJSON(), &profiles); err != nil {
		t.Fatal(err)
	}
	hedgedRounds := 0
	for _, p := range profiles {
		for _, r := range p.Rounds {
			if len(r.Hedged) == 1 && r.Hedged[0] == "site1" {
				hedgedRounds++
			} else if len(r.Hedged) != 0 {
				t.Errorf("round hedged %v, want only site1", r.Hedged)
			}
		}
	}
	if hedgedRounds == 0 {
		t.Error("no round of the served query lists site1 as hedged")
	}
	if hedges := sink.Metrics.CounterValue("transport.hedges"); hedges < 1 {
		t.Errorf("transport.hedges = %d, want >= 1", hedges)
	}
	if got := sink.Metrics.CounterValue("transport.pool.hedge_discards"); got < 1 {
		t.Errorf("transport.pool.hedge_discards = %d, want >= 1 (a lost hedge abandons its pooled connection)", got)
	}
}
