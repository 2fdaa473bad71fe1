package site

import (
	"context"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/tpcr"
	"repro/internal/transport"
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
		BaseCols: []string{"CustGroup"}, BaseWhere: where, Keys: []string{"CustGroup"},
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
	allocs := func(rows int) float64 {
		e := fusedEngine(t, rows)
		req := fusedRequest("")
		if got := handleOK(t, e, req).Rel.Len(); got != 200 {
			t.Fatalf("%d rows: %d groups, want 200", rows, got)
		}
		return testing.AllocsPerRun(20, func() { handleOK(t, e, req) })
	}
	small, large := allocs(6000), allocs(24000)
	if large > small*1.1 {
		t.Errorf("allocations scale with detail rows: %.0f at 6000 rows, %.0f at 24000", small, large)
	}
}

// TestRowFallbackCounter checks that site.row_fallbacks counts exactly the
// requests that asked for the vector engine and ran row code.
func TestRowFallbackCounter(t *testing.T) {
	e := fusedEngine(t, 2000)
	o := obs.New()
	e.SetObs(o)
	fallbacks := func() int64 { return o.Metrics.Snapshot().Counters["site.row_fallbacks"] }

	handleOK(t, e, fusedRequest(""))
	handleOK(t, e, fusedRequest("F.Discount > 0.02"))
	if n := fallbacks(); n != 0 {
		t.Fatalf("vectorizable requests counted %d row fallbacks", n)
	}

	// CASE is outside vec.Compile's reach: the base projection falls back.
	caseWhere := "CASE WHEN F.Discount > 0.02 THEN 1 ELSE 0 END = 1"
	want := handleOK(t, e, fusedRequest("F.Discount > 0.02"))
	got := handleOK(t, e, fusedRequest(caseWhere))
	if n := fallbacks(); n != 1 {
		t.Fatalf("row fallbacks = %d after a CASE base filter, want 1", n)
	}
	if want.Rel.Len() != got.Rel.Len() {
		t.Fatalf("fallback result has %d groups, vector result %d", got.Rel.Len(), want.Rel.Len())
	}

	// The row engine asked for by name is not a fallback.
	e.SetEvalEngine(gmdj.EngineRow)
	handleOK(t, e, fusedRequest(caseWhere))
	if n := fallbacks(); n != 1 {
		t.Fatalf("row fallbacks = %d after a row-engine request, want 1", n)
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
