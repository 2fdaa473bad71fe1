package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// keyClasses are the K values of the differential test, one slice per
// key-equivalence class (relation.SameKey): NULL, NaN and ±0 each form
// one, so every member of a class lands at the class's site.
var keyClasses = func() [][]value.V {
	out := [][]value.V{
		{value.Null},
		{value.NewFloat(math.NaN())},
		{value.NewFloat(0), value.NewFloat(math.Copysign(0, -1))},
		{value.NewFloat(1.5)},
		{value.NewFloat(-2.25)},
	}
	for k := 1; k <= 9; k++ {
		out = append(out, []value.V{value.NewFloat(float64(k))})
	}
	return out
}()

func keyedSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindFloat},
		relation.Column{Name: "D", Kind: value.KindInt},
		relation.Column{Name: "M", Kind: value.KindInt},
	)
}

// disjointParts partitions random rows over nSites by key class, the last
// site holding no rows, and declares each site's classes in a catalog over
// ids, so K is a proven partition attribute.
func disjointParts(t *testing.T, seed int64, ids []string) ([]*relation.Relation, *catalog.Catalog) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	home := make([]int, len(keyClasses))
	parts := make([]*relation.Relation, len(ids))
	for i := range parts {
		parts[i] = relation.New(keyedSchema())
	}
	for c := range home {
		home[c] = rng.Intn(len(ids) - 1)
	}
	for i := 0; i < 400; i++ {
		c := rng.Intn(len(keyClasses))
		k := keyClasses[c][rng.Intn(len(keyClasses[c]))]
		parts[home[c]].Rows = append(parts[home[c]].Rows,
			relation.Row{k, value.NewInt(int64(rng.Intn(3))), value.NewInt(int64(rng.Intn(100)))})
	}
	cat := catalog.New(ids...)
	for i, id := range ids {
		vals := []value.V{value.NewFloat(float64(1000 + i))} // no site's set is empty
		for c, s := range home {
			if s == i {
				vals = append(vals, keyClasses[c]...)
			}
		}
		if err := cat.SetDomain(id, "K", expr.DomainSet(vals...)); err != nil {
			t.Fatal(err)
		}
	}
	return parts, cat
}

// disjointCluster serves disjointParts from nSites in-process sites; site
// lost, when ≥ 0, fails every evaluation.
func disjointCluster(t *testing.T, seed int64, nSites, lost int) (*Coordinator, *catalog.Catalog) {
	t.Helper()
	ids := make([]string, nSites)
	for i := range ids {
		ids[i] = fmt.Sprintf("site%d", i)
	}
	parts, cat := disjointParts(t, seed, ids)
	clients := make([]transport.Client, nSites)
	for i, id := range ids {
		eng := site.NewEngine(id)
		eng.Load("flow", parts[i])
		var h transport.Handler = eng
		if i == lost {
			h = failEval{eng}
		}
		clients[i] = localClient(t, id, h)
	}
	t.Cleanup(func() {
		for _, cl := range clients {
			cl.Close()
		}
	})
	return NewCoordinator(clients...), cat
}

// disjointQueries are the shapes whose first step may be site-disjoint: a
// fused single MD on a one-column K, a chain whose second MD reads the first's
// average, and a two-column K.
func disjointQueries() map[string]gmdj.Query {
	return map[string]gmdj.Query{
		"single": {Base: gmdj.BaseDef{Cols: []string{"K"}}, MDs: []gmdj.MD{
			md("F.K = B.K", "count(*) AS n", "sum(F.M) AS s", "avg(F.M) AS a", "min(F.M) AS lo", "countd(F.M) AS dm"),
		}},
		"chain": {Base: gmdj.BaseDef{Cols: []string{"K"}}, MDs: []gmdj.MD{
			md("F.K = B.K", "count(*) AS n1", "avg(F.M) AS a1"),
			md("F.K = B.K AND F.M >= B.a1", "count(*) AS n2", "max(F.M) AS hi2"),
			md("F.D = B.n1", "count(*) AS n3"),
		}},
		"pair": {Base: gmdj.BaseDef{Cols: []string{"K", "D"}}, MDs: []gmdj.MD{
			md("F.K = B.K AND F.D = B.D", "count(*) AS n", "var(F.M) AS v"),
		}},
	}
}

// sortedFrame is r ordered by the Key() strings of its keys, a total order
// NaN keys included, as its relation frame.
func sortedFrame(t testing.TB, r *relation.Relation, keys []string) []byte {
	t.Helper()
	idx := make([]int, len(keys))
	for i, k := range keys {
		var err error
		if idx[i], err = r.Schema.MustLookup(k); err != nil {
			t.Fatal(err)
		}
	}
	c := r.Clone()
	slices.SortFunc(c.Rows, func(a, b relation.Row) int {
		return strings.Compare(relation.RowKey(a, idx), relation.RowKey(b, idx))
	})
	return relation.AppendFrame(nil, c)
}

// withoutClaim returns a copy of plan whose steps claim nothing about
// site-disjoint groups, so no merge checks the claim.
func withoutClaim(plan *Plan) *Plan {
	p := *plan
	p.Steps = append([]Step(nil), plan.Steps...)
	for i := range p.Steps {
		p.Steps[i].partition, p.Steps[i].Request.SiteDisjoint = nil, false
	}
	return &p
}

// TestDisjointClaimMatchesUnclaimed: over random partitions of NULL, NaN
// and ±0 keys among others, with an empty site, and with a lost site under
// AllowPartial, every plan of every option subset whose first step claims
// site-disjoint groups gives the same relation, byte for byte, as the same
// plan without the claim.
func TestDisjointClaimMatchesUnclaimed(t *testing.T) {
	claimed := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, lost := range []int{-1, 1} {
			coord, cat := disjointCluster(t, seed, 4, lost)
			coord.AllowPartial = lost >= 0
			for name, q := range disjointQueries() {
				for _, opts := range allOptions() {
					label := fmt.Sprintf("seed %d lost %d %s %s", seed, lost, name, optLabel(opts))
					plan := mustPlan(t, coord, q, Egil{Catalog: cat, Options: opts})
					if plan.Steps[0].disjoint() != (opts.SyncReduce) {
						t.Fatalf("%s: first step disjoint = %v\n%s", label, plan.Steps[0].disjoint(), plan.Explain())
					}
					if !plan.Steps[0].disjoint() {
						continue
					}
					claimed++
					got, stats, err := coord.Execute(context.Background(), plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if stats.Partial() != (lost >= 0) {
						t.Fatalf("%s: partial = %v", label, stats.Partial())
					}
					want, _, err := coord.Execute(context.Background(), withoutClaim(plan))
					if err != nil {
						t.Fatalf("%s keyed: %v", label, err)
					}
					if !bytes.Equal(sortedFrame(t, got, q.Keys()), sortedFrame(t, want, q.Keys())) {
						t.Fatalf("%s: claimed\n%s\nunclaimed\n%s", label, got, want)
					}
					assertOwnRows(t, label, got)
				}
			}
		}
	}
	if claimed == 0 {
		t.Fatal("no plan claimed its first step site-disjoint")
	}
}

// violatedCluster is the wire matrix's TPCR cluster, flat or under two
// relays, with one row of a customer whose catalog domain is site0's
// copied to site to: the catalog's claim that CustName partitions the
// sites is false for that customer.
func violatedCluster(t *testing.T, relays bool, to int) (*Coordinator, *catalog.Catalog, string) {
	t.Helper()
	parts := fig5Parts(t, wireMatrixConfig)
	custName, _ := tpcr.Schema().Lookup("CustName")
	row := parts[0].Rows[0]
	parts[to].Rows = append(parts[to].Rows, append(relation.Row(nil), row...))
	coord, cat := wireCluster(t, wireMatrixConfig, parts, relays, sameEngine)
	return coord, cat, row[custName].String()
}

// TestDisjointClaimViolated: a catalog claiming CustName disjoint while
// one customer's rows sit at two sites fails the query with an error
// naming the key and both sites: in process, through a relay tree where
// the two sites are under different relays (the root checks), and where
// they are under one relay (that relay checks, and names no attributes:
// it knows none), with and without AllowPartial: a relay's failed merge
// reaches the root as ErrInconsistent, never as a lost site. The same plan
// without the claim absorbs the lie.
func TestDisjointClaimViolated(t *testing.T) {
	single := gmdj.Query{Base: gmdj.BaseDef{Cols: []string{"CustName"}}, MDs: []gmdj.MD{{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS n"), agg.MustParseSpec("avg(F.Quantity) AS avg_qty")}},
		Thetas: []expr.Expr{expr.MustParse("F.CustName = B.CustName")},
	}}}
	for _, tc := range []struct {
		name   string
		relays bool
		to     int
		names  []string
	}{
		{"flat", false, 1, []string{"not site-disjoint on custname", "site0", "site1"}},
		{"two relays", true, 1, []string{"not site-disjoint on custname", "relay0", "relay1"}},
		{"one relay", true, 2, []string{"not site-disjoint (the catalog's partition claim is false)", "relay0", "site0", "site2"}},
	} {
		coord, cat, name := violatedCluster(t, tc.relays, tc.to)
		for _, qc := range []struct {
			name string
			q    gmdj.Query
		}{{"single", single}, {"fig5", fig5Query("CustName")}} {
			q, label := qc.q, tc.name+" "+qc.name
			schema, err := coord.DetailSchema(context.Background(), "tpcr")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Egil{Catalog: cat, Options: DefaultOptions}.BuildPlan(q, "tpcr", schema)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Steps[0].disjoint() {
				t.Fatalf("%s: the first step claims nothing:\n%s", label, plan.Explain())
			}
			// A merge failure is fatal under AllowPartial too: the sites
			// answered, and no subset of their answers is the result.
			for _, partial := range []bool{false, true} {
				coord.AllowPartial = partial
				x, _, err := coord.Execute(context.Background(), plan)
				if err == nil {
					t.Fatalf("%s (partial %t): a violated partition claim returned %d groups", label, partial, x.Len())
				}
				if !errors.Is(err, transport.ErrInconsistent) {
					t.Errorf("%s (partial %t): error %v is not ErrInconsistent", label, partial, err)
				}
				msg := err.Error()
				for _, want := range append([]string{"(CustName=" + name + ")"}, tc.names...) {
					if !strings.Contains(msg, want) {
						t.Errorf("%s (partial %t): error %q does not name %q", label, partial, msg, want)
					}
				}
			}
			coord.AllowPartial = false
			if qc.name == "single" {
				x, _, err := coord.Execute(context.Background(), withoutClaim(plan))
				if err != nil {
					t.Fatalf("%s unclaimed: %v", label, err)
				}
				if x.Len() != wireMatrixConfig.Customers {
					t.Errorf("%s unclaimed: %d groups, want %d", label, x.Len(), wireMatrixConfig.Customers)
				}
			}
		}
	}
}

// TestConcurrentPlannersShareProofs: eight planners over one catalog, while
// its proofs are dropped under them, each get the site-disjoint plan, and stay
// clean under the race detector.
func TestConcurrentPlannersShareProofs(t *testing.T) {
	coord, cat := disjointCluster(t, 7, 3, -1)
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	q := disjointQueries()["chain"]
	stop := make(chan struct{})
	var invalidator sync.WaitGroup
	invalidator.Add(1)
	go func() {
		defer invalidator.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cat.Invalidate()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				plan, err := Egil{Catalog: cat, Options: DefaultOptions}.BuildPlan(q, "flow", schema)
				if err == nil && !plan.Steps[0].disjoint() {
					err = fmt.Errorf("plan %d claims nothing:\n%s", i, plan.Explain())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	invalidator.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHedgedFusedStep: a site-disjoint step's groups come from the replies
// it was handed. With every site's call hedged and both replicas
// answering, the winner's reply is the caller's alone: the result equals
// the unhedged one, under the race detector too.
func TestHedgedFusedStep(t *testing.T) {
	ids := []string{"site0", "site1", "site2"}
	parts, cat := disjointParts(t, 11, ids)
	var hedged, plain []transport.Client
	for i, id := range ids {
		eng := site.NewEngine(id)
		eng.Load("flow", parts[i])
		// The primary straggles past the hedge delay, so the secondary is
		// raced and both replicas answer.
		primary := transport.NewChaos()
		injectN(primary, transport.OpEvalRounds, 1000, transport.Fault{Delay: 2 * time.Millisecond})
		h := siteClient(t, transport.SiteSpec{ID: id,
			Replicas:   []transport.Replica{{Handler: eng, Chaos: primary}, {Handler: eng}},
			Resilience: transport.Resilience{Hedge: true, HedgeDelay: 500 * time.Microsecond}})
		hedged, plain = append(hedged, h), append(plain, localClient(t, id, eng))
	}
	coord, unhedged := NewCoordinator(hedged...), NewCoordinator(plain...)
	for name, q := range disjointQueries() {
		plan := mustPlan(t, coord, q, Egil{Catalog: cat, Options: DefaultOptions})
		if !plan.Steps[0].disjoint() {
			t.Fatalf("%s: the first step claims nothing", name)
		}
		want, _, err := unhedged.Execute(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 5; i++ {
			got, stats, err := coord.Execute(context.Background(), plan)
			if err != nil {
				t.Fatalf("%s hedged: %v", name, err)
			}
			if len(roundSites(stats, (*RoundStats).Hedged)) == 0 {
				t.Fatalf("%s: no site was hedged", name)
			}
			if !bytes.Equal(sortedFrame(t, got, q.Keys()), sortedFrame(t, want, q.Keys())) {
				t.Fatalf("%s: hedged\n%s\nunhedged\n%s", name, got, want)
			}
		}
	}
}
