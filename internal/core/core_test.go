package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/value"
)

// flowSchema is the Flow-like detail schema used by the tests.
func flowSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
}

func flowRow(sas, das, nb int64) relation.Row {
	return relation.Row{value.NewInt(sas), value.NewInt(das), value.NewInt(nb)}
}

// cluster builds an in-process distributed warehouse: rows are split over
// nSites either by SourceAS (partitioned=true, catalog filled with
// domains) or round-robin (partitioned=false, empty catalog).
func cluster(t *testing.T, rows []relation.Row, nSites int, partitioned bool) (*Coordinator, *catalog.Catalog, *relation.Relation) {
	t.Helper()
	whole := relation.New(flowSchema())
	whole.Rows = rows

	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	siteDomains := make([]map[string]struct{}, nSites)
	for i := range siteDomains {
		siteDomains[i] = map[string]struct{}{}
	}
	for i, row := range rows {
		var s int
		if partitioned {
			s = int(row[0].I) % nSites
			siteDomains[s][row[0].Key()] = struct{}{}
		} else {
			s = i % nSites
		}
		parts[s].Rows = append(parts[s].Rows, row)
	}

	var clients []transport.Client
	ids := make([]string, nSites)
	for i := 0; i < nSites; i++ {
		ids[i] = fmt.Sprintf("site%d", i)
		eng := site.NewEngine(ids[i])
		eng.Load("flow", parts[i])
		clients = append(clients, transport.NewLocalClient(ids[i], eng, transport.CostModel{}))
	}
	cat := catalog.New(ids...)
	if partitioned {
		// SourceAS values are partitioned by modulo: declare exact sets.
		for i := 0; i < nSites; i++ {
			var vals []value.V
			for v := int64(i); v < 100; v += int64(nSites) {
				vals = append(vals, value.NewInt(v))
			}
			if err := cat.SetDomain(ids[i], "SourceAS", expr.DomainSet(vals...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewCoordinator(clients...), cat, whole
}

// example1 is the paper's Example 1 correlated-aggregate query.
func example1() gmdj.Query {
	return gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []gmdj.MD{
			{
				Aggs: [][]agg.Spec{{
					agg.MustParseSpec("count(*) AS cnt1"),
					agg.MustParseSpec("sum(F.NumBytes) AS sum1"),
				}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS")},
			},
			{
				Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS cnt2")}},
				Thetas: []expr.Expr{expr.MustParse(
					"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS AND F.NumBytes >= B.sum1 / B.cnt1")},
			},
		},
	}
}

func testRows(n int, seed int64) []relation.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = flowRow(int64(rng.Intn(12)), int64(rng.Intn(6)), int64(rng.Intn(1000)))
	}
	return rows
}

// assertSameRelation compares two relations after sorting by the key
// columns, tolerating float rounding.
func assertSameRelation(t *testing.T, label string, got, want *relation.Relation, keys []string) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s != %s", label, got.Schema, want.Schema)
	}
	if err := got.SortBy(keys...); err != nil {
		t.Fatal(err)
	}
	if err := want.SortBy(keys...); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d\ngot:\n%swant:\n%s", label, got.Len(), want.Len(), got, want)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.IsNull() && w.IsNull() {
				continue
			}
			if g.K == value.KindFloat || w.K == value.KindFloat {
				gf, e1 := g.AsFloat()
				wf, e2 := w.AsFloat()
				if e1 != nil || e2 != nil || math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf)) {
					t.Errorf("%s: row %d col %s: %v != %v", label, i, got.Schema.Cols[j].Name, g, w)
				}
				continue
			}
			if !value.Equal(g, w) {
				t.Errorf("%s: row %d col %s: %v != %v", label, i, got.Schema.Cols[j].Name, g, w)
			}
		}
	}
}

// allOptions enumerates all 16 optimization combinations.
func allOptions() []Options {
	var out []Options
	for i := 0; i < 16; i++ {
		out = append(out, Options{
			Coalesce:         i&1 != 0,
			GroupReduceSites: i&2 != 0,
			GroupReduceCoord: i&4 != 0,
			SyncReduce:       i&8 != 0,
		})
	}
	return out
}

func optLabel(o Options) string {
	var b strings.Builder
	for _, p := range []struct {
		on   bool
		name string
	}{{o.Coalesce, "coal"}, {o.GroupReduceSites, "grpS"}, {o.GroupReduceCoord, "grpC"}, {o.SyncReduce, "sync"}} {
		if p.on {
			b.WriteString(p.name + "+")
		}
	}
	if b.Len() == 0 {
		return "none"
	}
	return strings.TrimSuffix(b.String(), "+")
}

// TestDistributedMatchesCentralized is the core correctness property: for
// every optimization combination, on both partitioned and round-robin
// data, the distributed result equals the centralized GMDJ evaluation.
func TestDistributedMatchesCentralized(t *testing.T) {
	rows := testRows(300, 1)
	q := example1()
	for _, partitioned := range []bool{true, false} {
		coord, cat, whole := cluster(t, rows, 4, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range allOptions() {
			label := fmt.Sprintf("partitioned=%v/%s", partitioned, optLabel(opts))
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameRelation(t, label, got, want.Clone(), q.Keys())
		}
	}
}

// TestPlanShapes checks that the optimizer makes the decisions the paper
// describes for Example 1 / Example 5.
func TestPlanShapes(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(100, 2), 4, true)
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	q := example1()

	// No optimizations: m+1 = 3 rounds.
	plan, err := Egil{Catalog: cat}.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() != 3 || !plan.Steps[0].base() {
		t.Errorf("unoptimized plan: %d rounds\n%s", plan.Rounds(), plan.Explain())
	}

	// Example 5: partition attribute + key equality ⇒ single round.
	plan, err = Egil{Catalog: cat, Options: DefaultOptions}.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds() != 1 || !plan.Steps[0].FuseBase || len(plan.Steps[0].MDs) != 2 {
		t.Errorf("optimized plan should be a single fused chained round:\n%s", plan.Explain())
	}

	// Sync reduction alone (no partition knowledge): base fusion still
	// applies (Proposition 2 is distribution-independent) but no chain.
	plan, err = Egil{Catalog: catalog.New("site0"), Options: Options{SyncReduce: true}}.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 || !plan.Steps[0].FuseBase || plan.Rounds() != 2 {
		t.Errorf("sync-reduce-only plan:\n%s", plan.Explain())
	}

	// Coalescing does not apply to Example 1 (θ2 references sum1/cnt1).
	plan, err = Egil{Catalog: cat, Options: Options{Coalesce: true}}.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Query.MDs) != 2 {
		t.Error("correlated query wrongly coalesced")
	}

	// A coalescable query collapses to one MD, one step.
	cq := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c1")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
			},
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c2")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS AND F.NumBytes > 500")},
			},
		},
	}
	plan, err = Egil{Catalog: cat, Options: DefaultOptions}.BuildPlan(cq, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Query.MDs) != 1 || plan.Rounds() != 1 {
		t.Errorf("coalescable plan:\n%s", plan.Explain())
	}
}

// TestGroupReductionReducesTraffic: with site-side group reduction on,
// fewer groups come back from the sites (Example 3 of the paper).
func TestGroupReductionReducesTraffic(t *testing.T) {
	rows := testRows(400, 3)
	q := example1()
	coord, cat, _ := cluster(t, rows, 4, true)

	run := func(opts Options) *ExecStats {
		_, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	off := run(Options{})
	on := run(Options{GroupReduceSites: true})
	var offRecv, onRecv int64
	for _, r := range off.Rounds {
		offRecv += r.GroupsReceived
	}
	for _, r := range on.Rounds {
		onRecv += r.GroupsReceived
	}
	if onRecv >= offRecv {
		t.Errorf("group reduction did not reduce received groups: %d >= %d", onRecv, offRecv)
	}
	if on.Bytes() >= off.Bytes() {
		t.Errorf("group reduction did not reduce bytes: %d >= %d", on.Bytes(), off.Bytes())
	}
}

// TestCoordFilterReducesShippedGroups: distribution-aware reduction ships
// fewer groups to the sites (Theorem 4 / Example 2).
func TestCoordFilterReducesShippedGroups(t *testing.T) {
	rows := testRows(400, 4)
	q := example1()
	coord, cat, _ := cluster(t, rows, 4, true)

	run := func(opts Options) *ExecStats {
		_, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	off := run(Options{})
	on := run(Options{GroupReduceCoord: true})
	var offShip, onShip int64
	for _, r := range off.Rounds {
		offShip += r.GroupsShipped
	}
	for _, r := range on.Rounds {
		onShip += r.GroupsShipped
	}
	if onShip >= offShip {
		t.Errorf("coordinator filter did not reduce shipped groups: %d >= %d", onShip, offShip)
	}
	// With modulo partitioning, each site matches exactly 1/n of groups:
	// shipped should drop to about offShip/n (per round, per site).
	if onShip > offShip/3 {
		t.Errorf("filter too weak: shipped %d of %d", onShip, offShip)
	}
}

// TestUntouchedGroupsSurvive: a group whose aggregates are empty must
// still appear in the result with count 0 — including when group
// reduction filters it at every site.
func TestUntouchedGroupsSurvive(t *testing.T) {
	rows := []relation.Row{
		flowRow(1, 10, 100),
		flowRow(2, 20, 0), // group (2,20) never satisfies NumBytes > 50
	}
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []gmdj.MD{{
			Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS big")}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS AND F.NumBytes > 50")},
		}},
	}
	coord, cat, whole := cluster(t, rows, 2, true)
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {GroupReduceSites: true}, DefaultOptions} {
		got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
		if err != nil {
			t.Fatalf("%s: %v", optLabel(opts), err)
		}
		assertSameRelation(t, optLabel(opts), got, want.Clone(), q.Keys())
		// Specifically: group (2,20) present with big = 0.
		found := false
		for _, row := range got.Rows {
			if row[0].I == 2 && row[1].I == 20 {
				found = true
				if row[2].I != 0 {
					t.Errorf("%s: group (2,20) big = %v, want 0", optLabel(opts), row[2])
				}
			}
		}
		if !found {
			t.Errorf("%s: group (2,20) missing", optLabel(opts))
		}
	}
}

// TestRandomizedDistributedEquivalence fuzzes data, partitioning, and
// site counts under full optimization.
func TestRandomizedDistributedEquivalence(t *testing.T) {
	q := example1()
	for trial := 0; trial < 10; trial++ {
		rows := testRows(50+trial*37, int64(100+trial))
		nSites := 1 + trial%5
		partitioned := trial%2 == 0
		coord, cat, whole := cluster(t, rows, nSites, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: DefaultOptions})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameRelation(t, fmt.Sprintf("trial %d (n=%d part=%v)", trial, nSites, partitioned),
			got, want, q.Keys())
	}
}

// TestAvgAndExtremaDistributed exercises AVG/MIN/MAX/VAR across the
// distributed pipeline.
func TestAvgAndExtremaDistributed(t *testing.T) {
	rows := testRows(200, 5)
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{{
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("avg(F.NumBytes) AS avg_nb"),
				agg.MustParseSpec("min(F.NumBytes) AS min_nb"),
				agg.MustParseSpec("max(F.NumBytes) AS max_nb"),
				agg.MustParseSpec("var(F.NumBytes) AS var_nb"),
				agg.MustParseSpec("countd(F.DestAS) AS dests"),
			}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		}},
	}
	coord, cat, whole := cluster(t, rows, 3, false)
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: DefaultOptions})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "aggregates", got, want, q.Keys())
}

func TestErrors(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(10, 6), 2, true)
	if _, _, _, err := coord.Run(context.Background(), example1(), "nosuch", Egil{Catalog: cat}); err == nil {
		t.Error("unknown detail relation accepted")
	}
	empty := NewCoordinator()
	if _, _, err := empty.Execute(context.Background(), &Plan{}); err == nil {
		t.Error("empty coordinator accepted")
	}
	if _, err := empty.DetailSchema(context.Background(), "flow"); err == nil {
		t.Error("DetailSchema on empty coordinator accepted")
	}
	// Invalid query (bad column) must fail at planning.
	q := example1()
	q.Base.Cols = []string{"Bogus"}
	if _, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat}); err == nil {
		t.Error("bad base column accepted")
	}
}

// TestExplain smoke-tests plan explain output.
func TestExplain(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(50, 7), 2, true)
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Egil{Catalog: cat, Options: DefaultOptions}.BuildPlan(example1(), "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"plan:", "Corollary 1", "Proposition 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainDeterministic: a plan with Theorem-4 filters explains to one
// text, filter lines ordered by site, then step. EXPLAIN ANALYZE prints
// this text first, and is documented as identical run to run.
func TestExplainDeterministic(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(100, 2), 4, true)
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]bool{}
	for i := 0; i < 50; i++ {
		plan, err := Egil{Catalog: cat, Options: Options{GroupReduceCoord: true}}.BuildPlan(example1(), "flow", schema)
		if err != nil {
			t.Fatal(err)
		}
		texts[plan.Explain()] = true
	}
	if len(texts) != 1 {
		t.Fatalf("%d distinct EXPLAIN texts in 50 renderings", len(texts))
	}
	for text := range texts {
		if !strings.Contains(text, "    site0 step 1: ") || !strings.Contains(text, "    site3 step 2: ") {
			t.Errorf("filter lines missing:\n%s", text)
		}
		if strings.Index(text, "site0 step 2: ") > strings.Index(text, "site1 step 1: ") {
			t.Errorf("filter lines not ordered by site, then step:\n%s", text)
		}
	}
}

// TestStatsAccounting sanity-checks the execution statistics.
func TestStatsAccounting(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(200, 8), 4, true)
	_, stats, plan, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Rounds) != plan.Rounds() {
		t.Errorf("stats rounds = %d, plan rounds = %d", len(stats.Rounds), plan.Rounds())
	}
	if stats.Bytes() <= 0 {
		t.Error("no bytes accounted")
	}
	if stats.EvalTime() < 0 || stats.Wall <= 0 {
		t.Error("bad times")
	}
	if !strings.Contains(stats.String(), "total:") {
		t.Error("stats String() malformed")
	}
	// Base round ships no groups to sites but receives some.
	if stats.Rounds[0].GroupsShipped != 0 || stats.Rounds[0].GroupsReceived == 0 {
		t.Errorf("base round accounting: %+v", stats.Rounds[0])
	}
}

// TestMultiDetailQuery exercises the paper's R_k-varies-per-round case:
// the second MD aggregates a different detail relation.
func TestMultiDetailQuery(t *testing.T) {
	flowRows := testRows(150, 21)
	alertSchema := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "Severity", Kind: value.KindInt},
	)
	wholeAlerts := relation.New(alertSchema)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 80; i++ {
		wholeAlerts.MustAppend(value.NewInt(int64(rng.Intn(12))), value.NewInt(int64(rng.Intn(5))))
	}

	coord, cat, wholeFlow := cluster(t, flowRows, 3, false)
	// Load alert partitions round-robin alongside the flows.
	for i, cl := range coord.Clients() {
		part := relation.New(alertSchema)
		for j, row := range wholeAlerts.Rows {
			if j%3 == i {
				part.Rows = append(part.Rows, row)
			}
		}
		resp, err := cl.Call(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "alerts", Data: part})
		if err != nil || resp.Error() != nil {
			t.Fatalf("load alerts: %v %v", err, resp.Error())
		}
	}

	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS flows"), agg.MustParseSpec("avg(F.NumBytes) AS avg_nb")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
			},
			{
				Detail: "alerts",
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS alerts"), agg.MustParseSpec("max(F.Severity) AS worst")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS AND F.Severity >= 2")},
			},
		},
	}
	want, err := gmdj.EvalQueryOn(map[string]*relation.Relation{
		"flow": wholeFlow, "alerts": wholeAlerts,
	}, "flow", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, DefaultOptions} {
		got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
		if err != nil {
			t.Fatalf("%s: %v", optLabel(opts), err)
		}
		assertSameRelation(t, "multi-detail "+optLabel(opts), got, want.Clone(), q.Keys())
	}
	// Missing second relation surfaces as a planning error.
	q.MDs[1].Detail = "nosuch"
	if _, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat}); err == nil {
		t.Error("unknown second detail relation accepted")
	}
}

// TestFilterDroppedWhenReferencingChainOutputs: a derived Theorem-4 filter
// that references a column generated inside a chained step cannot be
// evaluated against the shipped X; the optimizer must drop it (and stay
// correct) rather than fail.
func TestFilterDroppedWhenReferencingChainOutputs(t *testing.T) {
	rows := testRows(200, 31)
	coord, cat, whole := cluster(t, rows, 3, true)
	// Keys (SourceAS, DestAS) but equi only on SourceAS: the chain forms
	// (partition attribute) yet base fusion is impossible, so X ships.
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []gmdj.MD{
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS cnt1"), agg.MustParseSpec("avg(F.NumBytes) AS avg1")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
			},
			{
				Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS cnt2")}},
				Thetas: []expr.Expr{expr.MustParse(
					"F.SourceAS = B.SourceAS AND B.avg1 >= 0 AND F.NumBytes >= B.avg1")},
			},
		},
	}
	egil := Egil{Catalog: cat, Options: DefaultOptions}
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := egil.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 || len(plan.Steps[1].MDs) != 2 || plan.Steps[1].FuseBase {
		t.Fatalf("expected one shipped chained step:\n%s", plan.Explain())
	}
	// The chained step's filter must have been dropped (it would
	// reference avg1, which the shipped X lacks).
	for _, f := range plan.Steps[1].Filters {
		t.Errorf("site %s kept filter %s referencing chain outputs", f.Site, f.Filter.Expr())
	}
	// And execution stays correct.
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := coord.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "dropped-filter chain", got, want, q.Keys())
}

// TestRandomizedQueryShapes fuzzes query structure (aggregate functions,
// equi columns, residual predicates, chain length) under full
// optimization against the centralized reference.
func TestRandomizedQueryShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	aggFuncs := []string{"count(*)", "sum(F.NumBytes)", "avg(F.NumBytes)", "min(F.NumBytes)", "max(F.NumBytes)"}
	for trial := 0; trial < 15; trial++ {
		rows := testRows(120+rng.Intn(200), int64(500+trial))
		nSites := 2 + rng.Intn(3)
		partitioned := rng.Intn(2) == 0
		coord, cat, whole := cluster(t, rows, nSites, partitioned)

		// Base columns: always SourceAS, sometimes DestAS.
		baseCols := []string{"SourceAS"}
		if rng.Intn(2) == 0 {
			baseCols = append(baseCols, "DestAS")
		}
		eq := "F.SourceAS = B.SourceAS"
		if len(baseCols) == 2 {
			eq += " AND F.DestAS = B.DestAS"
		}

		nMDs := 1 + rng.Intn(3)
		q := gmdj.Query{Base: gmdj.BaseDef{Cols: baseCols}}
		var prevAvg string
		for mi := 0; mi < nMDs; mi++ {
			theta := eq
			switch rng.Intn(3) {
			case 1:
				theta += fmt.Sprintf(" AND F.NumBytes > %d", rng.Intn(800))
			case 2:
				if prevAvg != "" {
					theta += " AND F.NumBytes >= B." + prevAvg
				}
			}
			var specs []agg.Spec
			nAggs := 1 + rng.Intn(2)
			for ai := 0; ai < nAggs; ai++ {
				f := aggFuncs[rng.Intn(len(aggFuncs))]
				specs = append(specs, agg.MustParseSpec(fmt.Sprintf("%s AS a_%d_%d", f, mi, ai)))
			}
			// Guarantee an avg for later correlation half the time.
			if rng.Intn(2) == 0 {
				name := fmt.Sprintf("avg_%d", mi)
				specs = append(specs, agg.MustParseSpec("avg(F.NumBytes) AS "+name))
				prevAvg = name
			}
			q.MDs = append(q.MDs, gmdj.MD{
				Aggs:   [][]agg.Spec{specs},
				Thetas: []expr.Expr{expr.MustParse(theta)},
			})
		}

		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatalf("trial %d centralized: %v", trial, err)
		}
		for _, opts := range []Options{{}, DefaultOptions} {
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, optLabel(opts), err)
			}
			assertSameRelation(t, fmt.Sprintf("trial %d (%s)", trial, optLabel(opts)),
				got, want.Clone(), q.Keys())
		}
	}
}

// kindShift answers like its engine but declares the base relation's first
// column as a string: a site whose data disagrees with its peers.
type kindShift struct{ transport.Handler }

func (k kindShift) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	resp := k.Handler.Handle(ctx, req)
	if req.Op == transport.OpEvalBase && resp.Rel != nil {
		cols := append([]relation.Column(nil), resp.Rel.Schema.Cols...)
		cols[0].Kind = value.KindString
		resp.Rel.Schema, _ = relation.NewSchema(cols...)
	}
	return resp
}

// TestBaseFragmentsDisagree: base fragments whose columns differ in kind
// fail the base round loudly instead of merging into one X.
func TestBaseFragmentsDisagree(t *testing.T) {
	rows := testRows(40, 3)
	var clients []transport.Client
	for i := 0; i < 2; i++ {
		eng := site.NewEngine(fmt.Sprintf("site%d", i))
		eng.Load("flow", relationFromRows(rows[i*20:(i+1)*20]))
		var h transport.Handler = eng
		if i == 1 {
			h = kindShift{eng}
		}
		clients = append(clients, transport.NewLocalClient(eng.ID(), h, transport.CostModel{}))
	}
	_, _, _, err := NewCoordinator(clients...).Run(context.Background(), example1(), "flow", Egil{Catalog: catalog.New()})
	if err == nil || !strings.Contains(err.Error(), "synchronization of base") || !strings.Contains(err.Error(), "differ from") {
		t.Fatalf("err = %v, want the base round to refuse mismatched fragments", err)
	}
}

// TestEmptyData: empty partitions and fully empty warehouses must produce
// clean (empty) results under every optimization mix, not errors.
func TestEmptyData(t *testing.T) {
	q := example1()

	// One site holds everything, the others are empty.
	rows := testRows(60, 51)
	parts := make([]*relation.Relation, 3)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	parts[1].Rows = rows
	var clients []transport.Client
	for i, part := range parts {
		eng := site.NewEngine(fmt.Sprintf("site%d", i))
		eng.Load("flow", part)
		clients = append(clients, transport.NewLocalClient(eng.ID(), eng, transport.CostModel{}))
	}
	coord := NewCoordinator(clients...)
	whole := relation.New(flowSchema())
	whole.Rows = rows
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, DefaultOptions} {
		got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New(), Options: opts})
		if err != nil {
			t.Fatalf("skewed data (%s): %v", optLabel(opts), err)
		}
		assertSameRelation(t, "skewed "+optLabel(opts), got, want.Clone(), q.Keys())
	}

	// Entirely empty warehouse.
	for i := range parts {
		eng := site.NewEngine(fmt.Sprintf("e%d", i))
		eng.Load("flow", relation.New(flowSchema()))
		clients[i] = transport.NewLocalClient(eng.ID(), eng, transport.CostModel{})
	}
	empty := NewCoordinator(clients...)
	for _, opts := range []Options{{}, DefaultOptions} {
		got, _, _, err := empty.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New(), Options: opts})
		if err != nil {
			t.Fatalf("empty warehouse (%s): %v", optLabel(opts), err)
		}
		if got.Len() != 0 {
			t.Errorf("empty warehouse returned %d rows", got.Len())
		}
	}
}

// TestPaperExample2EndToEnd executes the paper's Example 2 (revised form):
// site domains are ranges of SourceAS, and the condition is the arithmetic
// B.DestAS + B.SourceAS < F.SourceAS * 2, whose Theorem-4 filter is the
// derived bound B.DestAS + B.SourceAS < 2·max(SourceAS at site).
func TestPaperExample2EndToEnd(t *testing.T) {
	rows := testRows(200, 61)
	// Partition by SourceAS range: site0 gets [0,5], site1 [6,11].
	parts := []*relation.Relation{relation.New(flowSchema()), relation.New(flowSchema())}
	for _, row := range rows {
		if row[0].I <= 5 {
			parts[0].Rows = append(parts[0].Rows, row)
		} else {
			parts[1].Rows = append(parts[1].Rows, row)
		}
	}
	var clients []transport.Client
	ids := []string{"s0", "s1"}
	for i, part := range parts {
		eng := site.NewEngine(ids[i])
		eng.Load("flow", part)
		clients = append(clients, transport.NewLocalClient(ids[i], eng, transport.CostModel{}))
	}
	coord := NewCoordinator(clients...)
	cat := catalog.New(ids...)
	cat.SetDomain("s0", "SourceAS", expr.DomainRange(value.NewInt(0), value.NewInt(5)))
	cat.SetDomain("s1", "SourceAS", expr.DomainRange(value.NewInt(6), value.NewInt(11)))

	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []gmdj.MD{{
			Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
			Thetas: []expr.Expr{expr.MustParse(
				"B.DestAS + B.SourceAS < F.SourceAS * 2")},
		}},
	}
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	egil := Egil{Catalog: cat, Options: Options{GroupReduceCoord: true}}
	plan, err := egil.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	// The derived filter for s0 must be the paper's bound: ... < 10.
	f := plan.Steps[1].filter("s0")
	if f == nil {
		t.Fatalf("no filter derived for s0:\n%s", plan.Explain())
	}
	if got := f.Expr().String(); got != "B.DestAS + B.SourceAS < 10" {
		t.Errorf("s0 filter = %s, want B.DestAS + B.SourceAS < 10", got)
	}

	whole := relation.New(flowSchema())
	whole.Rows = rows
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _, err := coord.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "example 2", got, want, q.Keys())

	// And the filter actually reduced shipping vs the unfiltered run.
	_, statsOff, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	var on, off int64
	for _, r := range stats.Rounds {
		on += r.GroupsShipped
	}
	for _, r := range statsOff.Rounds {
		off += r.GroupsShipped
	}
	if on >= off {
		t.Errorf("range-derived filter did not reduce shipping: %d >= %d", on, off)
	}
}
