package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
)

// assertExactRelation compares two relations bit for bit after sorting by
// the key columns: kinds, ints, strings (sketch states included) and float
// bit patterns.
func assertExactRelation(t *testing.T, label string, got, want *relation.Relation, keys []string) {
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
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.K != w.K || g.I != w.I || g.S != w.S || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("%s: row %d col %s: %#v != %#v", label, i, got.Schema.Cols[j].Name, g, w)
			}
		}
	}
}

// TestSlabAccumulatorsAgree runs every aggregate family — the sketch
// primitives included — through the three holders of accumulator slabs:
// the vectorized evaluation at the sites, the coordinator's
// synchronization above it, and the row reference gmdj.EvalQuery runs.
// The measures are integers, so sums and sums of squares are exact
// whatever order fragments merge in, and the distributed result must equal
// the centralized evaluation byte for byte.
func TestSlabAccumulatorsAgree(t *testing.T) {
	rows := testRows(600, 11)
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{
			{
				Aggs: [][]agg.Spec{{
					agg.MustParseSpec("count(*) AS n"),
					agg.MustParseSpec("count(F.DestAS) AS n_dest"),
					agg.MustParseSpec("sum(F.NumBytes) AS total"),
					agg.MustParseSpec("avg(F.NumBytes) AS mean"),
					agg.MustParseSpec("min(F.NumBytes) AS lo"),
					agg.MustParseSpec("max(F.NumBytes) AS hi"),
					agg.MustParseSpec("var(F.NumBytes) AS spread"),
					agg.MustParseSpec("stddev(F.NumBytes) AS dev"),
					agg.MustParseSpec("countd(F.NumBytes) AS approx_sizes"),
					agg.MustParseSpec("countdx(F.DestAS) AS dests"),
				}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
			},
			{
				// Correlated with the first operator's average, and empty
				// for some groups: empty sketch and extremum states must
				// ship and merge as NULL.
				Aggs: [][]agg.Spec{{
					agg.MustParseSpec("count(*) AS n_big"),
					agg.MustParseSpec("max(F.NumBytes) AS hi_big"),
					agg.MustParseSpec("countd(F.DestAS) AS approx_big"),
					agg.MustParseSpec("countdx(F.NumBytes) AS sizes_big"),
				}},
				Thetas: []expr.Expr{expr.MustParse(
					"F.SourceAS = B.SourceAS AND F.NumBytes >= B.mean AND F.NumBytes > 990")},
			},
		},
	}
	for _, partitioned := range []bool{true, false} {
		coord, cat, whole := cluster(t, rows, 3, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, DefaultOptions} {
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opts), err)
			}
			assertExactRelation(t, optLabel(opts), got, want, q.Keys())
		}
	}
}

// TestSlabNoAggregates: an operator may carry a θ and no aggregates at
// all (MD.Validate accepts it), so a slab group can be zero accumulators
// wide. The fused synchronization still has to add one group per new
// fragment key and agree with the centralized evaluation.
func TestSlabNoAggregates(t *testing.T) {
	rows := testRows(300, 5)
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{{
			Aggs:   [][]agg.Spec{{}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		}},
	}
	for _, partitioned := range []bool{true, false} {
		coord, cat, whole := cluster(t, rows, 3, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, DefaultOptions} {
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opts), err)
			}
			assertExactRelation(t, optLabel(opts), got, want, q.Keys())
		}
	}
}
