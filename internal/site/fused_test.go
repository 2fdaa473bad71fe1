package site

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// fusedEngine returns an engine holding a TPCR dataset of the given size
// with 200 CustGroup values.
func fusedEngine(tb testing.TB, rows int) *Engine {
	e := NewEngine("site0")
	e.Load("tpcr", fusedPartition(tb, rows))
	return e
}

// fusedPartition is the relation fusedEngine loads.
func fusedPartition(tb testing.TB, rows int) *relation.Relation {
	tb.Helper()
	part, err := tpcr.GeneratePartition(
		tpcr.Config{Rows: rows, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return part
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

// replyRel boxes the relation of a reply.
func replyRel(tb testing.TB, resp *transport.Response) *relation.Relation {
	tb.Helper()
	f, err := resp.Frame()
	if err != nil {
		tb.Fatalf("reply %+v: %v", resp, err)
	}
	return f.Relation()
}

// TestFusedAllocsDoNotScaleWithDetail guards the columnar base-values path:
// once the batch and its memoized groupings are warm, a fused 200-group
// request allocates per group and per round, never per detail row. Under
// the race detector sync.Pool drops a quarter of the chains put back, and
// each request that finds none builds a chain's buffers and states anew,
// so the mean is taken over enough requests for those draws to even out.
func TestFusedAllocsDoNotScaleWithDetail(t *testing.T) {
	plain := fusedRequest("")
	conditional := fusedRequest("")
	conditional.Rounds[0].Aggs[0] = append(conditional.Rounds[0].Aggs[0],
		"sum(CASE WHEN F.Discount > 0.05 THEN F.Quantity ELSE 0 END) AS q_disc")
	for name, req := range map[string]*transport.Request{"plain": plain, "conditional aggregate": conditional} {
		allocs := func(rows int) float64 {
			e := fusedEngine(t, rows)
			if got := replyRel(t, handleOK(t, e, req)).Len(); got != 200 {
				t.Fatalf("%s, %d rows: %d groups, want 200", name, rows, got)
			}
			return testing.AllocsPerRun(100, func() { handleOK(t, e, req) })
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
	if !reflect.DeepEqual(replyRel(t, want).Rows, replyRel(t, got).Rows) {
		t.Fatal("CASE base filter and plain base filter disagree")
	}
	if got.Profile == nil || got.Profile.VecBatches == 0 || got.Profile.Engine != "vector" {
		t.Fatalf("profile %+v: want engine vector with kernel batches", got.Profile)
	}
}

// TestMixedKindRelationRefused: a relation holding a FLOAT in an INT column
// has no columnar form, and a site keeps nothing else. OpLoad refuses it at
// once, naming site, relation, column, declared and found kind and row. An
// in-process Load stores the refusal instead: every request naming the
// relation returns it until a well-typed load replaces it.
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
	const want = "site site0: relation flows: column Q declared INT holds FLOAT at row 4321"

	e := NewEngine("site0")
	ctx := context.Background()
	load := &transport.Request{Op: transport.OpLoad, Rel: "flows", Data: bad}
	if resp := e.Handle(ctx, load); resp.Err != "load: "+want {
		t.Fatalf("OpLoad of the mixed-kind relation: Err %q, want %q", resp.Err, "load: "+want)
	}

	evalBase := &transport.Request{Op: transport.OpEvalRounds, Detail: "flows", BaseCols: []string{"K"}}
	evalRounds := &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flows", BaseCols: []string{"K"},
		Rounds: []transport.RoundSpec{{
			Detail: "flows", BaseAlias: "B", DetailAlias: "R",
			Aggs: [][]string{{"sum(F.Q) AS s"}}, Thetas: []string{"F.K = B.K"},
		}},
	}
	relInfo := &transport.Request{Op: transport.OpRelInfo, Rel: "flows"}
	refused := func(when string) {
		t.Helper()
		for _, req := range []*transport.Request{evalBase, evalRounds, relInfo} {
			if resp := e.Handle(ctx, req); !strings.HasSuffix(resp.Err, ": "+want) {
				t.Fatalf("%s, %s: Err %q, want the refusal %q", when, req.Op, resp.Err, want)
			}
		}
	}
	e.Load("flows", bad)
	refused("after Load")
	refused("on a second request")

	handleOK(t, e, &transport.Request{Op: transport.OpLoad, Rel: "flows", Data: good})
	if got := handleOK(t, e, relInfo).RowCount; got != 5000 {
		t.Fatalf("after the well-typed OpLoad: relInfo counts %d rows, want 5000", got)
	}

	e.Load("flows", bad)
	refused("after a second Load")
	e.Load("flows", good)
	handleOK(t, e, evalBase)
	if got := replyRel(t, handleOK(t, e, evalRounds)).Len(); got != 7 {
		t.Fatalf("after the well-typed Load: %d groups, want 7", got)
	}
	if got := handleOK(t, e, relInfo).RowCount; got != 5000 {
		t.Fatalf("after the well-typed Load: relInfo counts %d rows, want 5000", got)
	}
}

// TestLoadRacesEvalRounds: loads of one name race requests on it. Every
// reply is byte for byte the answer over the old relation or over the new
// one: a request sees one stored batch whole, never a mix or a half-built
// one.
func TestLoadRacesEvalRounds(t *testing.T) {
	oldRel, newRel := fusedPartition(t, 1500), fusedPartition(t, 2500)
	req := fusedRequest("")
	answer := func(r *relation.Relation) string {
		e := NewEngine("site0")
		e.Load("tpcr", r)
		return string(replyBytes(e.Handle(context.Background(), req)))
	}
	allowed := map[string]string{answer(oldRel): "old", answer(newRel): "new"}
	if len(allowed) != 2 {
		t.Fatal("the old and new answers are not distinct")
	}

	e := NewEngine("site0")
	e.Load("tpcr", oldRel)
	const readers, requests, cycles = 4, 30, 30
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if got := replyBytes(e.Handle(context.Background(), req)); allowed[string(got)] == "" {
					t.Errorf("reply %.200q is neither the old nor the new answer", got)
					return
				}
			}
		}()
	}
	for i := 0; i < cycles; i++ {
		if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "tpcr", Data: newRel}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		e.Load("tpcr", oldRel)
	}
	wg.Wait()
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
