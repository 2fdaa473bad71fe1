package site

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// fusedEngine returns an engine holding a TPCR dataset of the given size
// with 200 CustGroup values.
func fusedEngine(tb testing.TB, rows int) *Engine {
	tb.Helper()
	part, err := tpcr.GeneratePartition(
		tpcr.Config{Rows: rows, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	e := NewEngine("site0")
	e.Load("tpcr", part)
	return e
}

// fusedRequest is the request the fully optimized Fig. 5 plan sends every
// site: the base-values query fused with a locally chained pair of rounds
// (MD1/MD2 coalesced, MD3 correlated with MD1's average).
func fusedRequest(where string) *transport.Request {
	const eq = "F.CustGroup = B.CustGroup"
	return &transport.Request{
		Op: transport.OpEvalRounds, Detail: "tpcr",
		BaseCols: []string{"CustGroup"}, BaseWhere: where,
		Rounds: []transport.RoundSpec{
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs: [][]string{
					{"count(*) AS cnt1", "avg(F.Quantity) AS avg1"},
					{"count(*) AS cnt2", "avg(F.Discount) AS avg2"},
				},
				Thetas: []string{eq, eq + " AND F.Discount > 0.05"},
			},
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs:   [][]string{{"count(*) AS cnt3", "avg(F.ExtendedPrice) AS avg3"}},
				Thetas: []string{eq + " AND F.Quantity >= B.avg1"},
			},
		},
	}
}

func handleOK(tb testing.TB, e *Engine, req *transport.Request) *transport.Response {
	tb.Helper()
	resp := e.Handle(context.Background(), req)
	if resp.Err != "" {
		tb.Fatal(resp.Err)
	}
	return resp
}

// TestFusedAllocsDoNotScaleWithDetail guards the columnar base-values path:
// once the batch and its memoized groupings are warm, a fused 200-group
// request allocates per group and per round, never per detail row.
func TestFusedAllocsDoNotScaleWithDetail(t *testing.T) {
	plain := fusedRequest("")
	conditional := fusedRequest("")
	conditional.Rounds[0].Aggs[0] = append(conditional.Rounds[0].Aggs[0],
		"sum(CASE WHEN F.Discount > 0.05 THEN F.Quantity ELSE 0 END) AS q_disc")
	for name, req := range map[string]*transport.Request{"plain": plain, "conditional aggregate": conditional} {
		allocs := func(rows int) float64 {
			e := fusedEngine(t, rows)
			if got := handleOK(t, e, req).Rel.Len(); got != 200 {
				t.Fatalf("%s, %d rows: %d groups, want 200", name, rows, got)
			}
			return testing.AllocsPerRun(20, func() { handleOK(t, e, req) })
		}
		small, large := allocs(6000), allocs(24000)
		if large > small*1.1 {
			t.Errorf("%s: allocations scale with detail rows: %.0f at 6000 rows, %.0f at 24000", name, small, large)
		}
	}
}

// TestCaseBaseFilterVectorized: a base filter written as CASE selects what
// the plain predicate selects, byte for byte, and the request's rounds ran
// on the kernels (there is nothing else for them to run on).
func TestCaseBaseFilterVectorized(t *testing.T) {
	e := fusedEngine(t, 2000)
	want := handleOK(t, e, fusedRequest("F.Discount > 0.02"))
	req := fusedRequest("CASE WHEN F.Discount > 0.02 THEN 1 ELSE 0 END = 1")
	req.QueryID = "q-case"
	got := handleOK(t, e, req)
	if !reflect.DeepEqual(want.Rel.Rows, got.Rel.Rows) {
		t.Fatal("CASE base filter and plain base filter disagree")
	}
	if got.Profile == nil || got.Profile.VecBatches == 0 || got.Profile.Engine != "vector" {
		t.Fatalf("profile %+v: want engine vector with kernel batches", got.Profile)
	}
}

// TestMixedKindRelationRefused: a loaded relation holding a FLOAT in an INT
// column has no columnar form, and the site evaluates on nothing else. Both
// evaluation ops refuse it with an error naming relation, column, declared
// and found kind; the refusal is cached, not re-derived per request; and a
// well-typed Load of the same name clears it.
func TestMixedKindRelationRefused(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindInt},
		relation.Column{Name: "Q", Kind: value.KindInt},
	)
	bad := relation.New(schema)
	for i := 0; i < 5000; i++ {
		bad.Rows = append(bad.Rows, relation.Row{value.NewInt(int64(i % 7)), value.NewInt(int64(i))})
	}
	good := bad.Clone()
	bad.Rows[4321][1] = value.NewFloat(2.5)

	e := NewEngine("site0")
	e.Load("flows", bad)
	evalBase := &transport.Request{Op: transport.OpEvalBase, Detail: "flows", BaseCols: []string{"K"}}
	evalRounds := &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flows", BaseCols: []string{"K"},
		Rounds: []transport.RoundSpec{{
			Detail: "flows", BaseAlias: "B", DetailAlias: "R",
			Aggs: [][]string{{"sum(F.Q) AS s"}}, Thetas: []string{"F.K = B.K"},
		}},
	}
	const want = "site site0: relation flows: column Q declared INT holds FLOAT at row 4321"
	for _, req := range []*transport.Request{evalBase, evalRounds} {
		if resp := e.Handle(context.Background(), req); !strings.Contains(resp.Err, want) {
			t.Fatalf("%s over the mixed-kind relation: Err %q, want it to contain %q", req.Op, resp.Err, want)
		}
	}
	// Later requests get the refusal the first conversion cached — the very
	// same error value — instead of scanning 4 321 rows again to rebuild it.
	_, first := e.detailBatch("flows", bad)
	if resp := e.Handle(context.Background(), evalBase); !strings.Contains(resp.Err, want) {
		t.Fatalf("second request: Err %q, want it to contain %q", resp.Err, want)
	}
	if _, again := e.detailBatch("flows", bad); first == nil || again != first {
		t.Errorf("the refusal was rebuilt (%v, then %v): conversion re-ran instead of being cached", first, again)
	}

	e.Load("flows", good)
	handleOK(t, e, evalBase)
	if got := handleOK(t, e, evalRounds).Rel.Len(); got != 7 {
		t.Fatalf("after the well-typed Load: %d groups, want 7", got)
	}
}

// TestFusedVecStatsPinned: the kernel work counters of the Fig. 5 fused
// request over a 6 000-row partition, as the kernels that first reported
// them counted it — one batch per filtered or evaluated key group, its
// lanes scanned, and the lanes residual filters read and kept — so
// SiteProfile.Vec* keep their meaning however the kernels select lanes.
func TestFusedVecStatsPinned(t *testing.T) {
	req := fusedRequest("")
	req.QueryID = "q-stats"
	p := handleOK(t, fusedEngine(t, 6000), req).Profile
	got := [4]int64{p.VecBatches, p.VecRows, p.VecFilterRows, p.VecSelected}
	if want := [4]int64{1000, 23671, 12000, 5671}; got != want {
		t.Fatalf("vec stats (batches, rows, filter rows, selected) = %v, want %v", got, want)
	}
}

func BenchmarkHandleFused(b *testing.B) {
	e := fusedEngine(b, 24000)
	req := fusedRequest("")
	handleOK(b, e, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handleOK(b, e, req)
	}
}

// BenchmarkHandleFusedFiltered is the fused request with a base filter of
// the kind a served WHERE clause sends: the filter runs on every request.
func BenchmarkHandleFusedFiltered(b *testing.B) {
	e := fusedEngine(b, 24000)
	req := fusedRequest("F.Discount > 0.02 AND F.Quantity < 30")
	handleOK(b, e, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handleOK(b, e, req)
	}
}
