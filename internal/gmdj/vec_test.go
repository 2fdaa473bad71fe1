package gmdj

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// Differential tests: the vectorized engine must be byte-exact with the
// row engine — identical value kinds, identical float bit patterns
// (accumulation order preserved), identical NULLs — for any worker count.

// exactRows compares two relations value-by-value with bit-level float
// equality; it returns "" when identical.
func exactRows(a, b *relation.Relation) string {
	if a.Schema.String() != b.Schema.String() {
		return fmt.Sprintf("schema %s vs %s", a.Schema, b.Schema)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.K != y.K || x.I != y.I || x.S != y.S ||
				math.Float64bits(x.F) != math.Float64bits(y.F) {
				return fmt.Sprintf("row %d col %d: %#v vs %#v", i, j, x, y)
			}
		}
	}
	return ""
}

// randDetail builds a mixed-kind detail relation with NULLs:
// (K Int, G String, Q Int, P Float, Flag Bool).
func randDetail(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindInt},
		relation.Column{Name: "G", Kind: value.KindString},
		relation.Column{Name: "Q", Kind: value.KindInt},
		relation.Column{Name: "P", Kind: value.KindFloat},
		relation.Column{Name: "Flag", Kind: value.KindBool},
	)
	r := relation.New(s)
	groups := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		row := relation.Row{
			value.NewInt(int64(rng.Intn(5))),
			value.NewString(groups[rng.Intn(len(groups))]),
			value.NewInt(int64(rng.Intn(1000) - 500)),
			value.NewFloat(float64(rng.Intn(2000))/8 - 100),
			value.NewBool(rng.Intn(2) == 0),
		}
		// Sprinkle NULLs on the non-key columns.
		for j := 2; j < len(row); j++ {
			if rng.Intn(10) == 0 {
				row[j] = value.Null
			}
		}
		r.MustAppend(row...)
	}
	return r
}

// diffMDs is the shape battery: equi probes, pure nested-loop θ,
// arithmetic, IN/LIKE/BETWEEN, base-side scalar references, multi-θ, and
// every aggregate family.
func diffMDs() []MD {
	return []MD{
		{ // equi + residual with base reference
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("count(*) AS cnt"),
				agg.MustParseSpec("sum(F.Q) AS sq"),
				agg.MustParseSpec("avg(F.P) AS ap"),
			}},
			Thetas: []expr.Expr{expr.MustParse("F.K = B.K AND F.Q >= B.K * 10")},
		},
		{ // no equi pairs: nested loop over every lane
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c2"), agg.MustParseSpec("min(F.P) AS mp")}},
			Thetas: []expr.Expr{expr.MustParse("F.Q + B.K > 100 OR F.Flag")},
		},
		{ // string equi key, string aggregates, LIKE / IN / BETWEEN
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("max(F.G) AS mg"),
				agg.MustParseSpec("count(F.P) AS cp"),
			}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.G = B.G AND (F.G LIKE '%a%' OR F.K IN (1, 2)) AND F.Q BETWEEN -250 AND 250")},
		},
		{ // two θ in one MD, arithmetic with NULL propagation and division
			Aggs: [][]agg.Spec{
				{agg.MustParseSpec("sum(F.P / 3) AS sp")},
				{agg.MustParseSpec("count(*) AS ch"), agg.MustParseSpec("avg(F.Q % 7) AS aq")},
			},
			Thetas: []expr.Expr{
				expr.MustParse("F.K = B.K AND NOT (F.Q < -400)"),
				expr.MustParse("F.K = B.K AND F.P * 2 > B.K - 1"),
			},
		},
	}
}

func diffBase(t *testing.T, detail *relation.Relation) *relation.Relation {
	t.Helper()
	b, err := EvalBase(detail, BaseDef{Cols: []string{"K", "G"}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVecMatchesRowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		detail := randDetail(rng, rng.Intn(200)+1)
		b := diffBase(t, detail)
		for mi, md := range diffMDs() {
			for _, opts := range []SubOpts{
				{},
				{Finalize: true, Touched: true},
			} {
				rowOpts := opts
				rowOpts.Engine = EngineRow
				want, rowErr := EvalSub(b, detail, md, rowOpts)
				for _, workers := range []int{1, 4} {
					vecOpts := opts
					vecOpts.Engine = EngineVector
					vecOpts.Workers = workers
					got, vecErr := EvalSub(b, detail, md, vecOpts)
					if (rowErr != nil) != (vecErr != nil) {
						t.Fatalf("trial %d md %d W=%d: row err %v, vec err %v", trial, mi, workers, rowErr, vecErr)
					}
					if rowErr != nil {
						continue
					}
					if d := exactRows(want, got); d != "" {
						t.Fatalf("trial %d md %d W=%d opts=%+v: %s", trial, mi, workers, opts, d)
					}
				}
			}
		}
	}
}

// TestVecParallelMerge exercises the worker-partitioned path with many
// workers on one shared accumulator grid — run under -race, this is the
// data-race check for the parallel per-site evaluation.
func TestVecParallelMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	detail := randDetail(rng, 500)
	b := diffBase(t, detail)
	md := diffMDs()[0]
	want, err := EvalSub(b, detail, md, SubOpts{Engine: EngineRow, Finalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := EvalSub(b, detail, md, SubOpts{Engine: EngineVector, Workers: workers, Finalize: true})
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if d := exactRows(want, got); d != "" {
			t.Fatalf("W=%d: %s", workers, d)
		}
	}
}

// TestVecFallbackMixedKindColumn: a column whose values stray from the
// declared kind cannot be vectorized; the vector engine must silently
// fall back to rows and still produce the row-exact answer.
func TestVecFallbackMixedKindColumn(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindInt},
		relation.Column{Name: "Q", Kind: value.KindInt},
	)
	detail := relation.New(s)
	detail.Rows = append(detail.Rows,
		relation.Row{value.NewInt(1), value.NewInt(10)},
		relation.Row{value.NewInt(1), value.NewFloat(2.5)}, // Float in an Int column
		relation.Row{value.NewInt(2), value.NewInt(30)},
	)
	if _, err := vec.FromRelation(detail); err == nil {
		t.Fatal("expected FromRelation to reject the mixed-kind column")
	}
	b := diffBase0(t, detail)
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c"), agg.MustParseSpec("sum(F.Q) AS s")}},
		Thetas: []expr.Expr{expr.MustParse("F.K = B.K")},
	}
	want, err := EvalSub(b, detail, md, SubOpts{Engine: EngineRow})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalSub(b, detail, md, SubOpts{Engine: EngineVector})
	if err != nil {
		t.Fatal(err)
	}
	if d := exactRows(want, got); d != "" {
		t.Fatal(d)
	}
}

func diffBase0(t *testing.T, detail *relation.Relation) *relation.Relation {
	t.Helper()
	b, err := EvalBase(detail, BaseDef{Cols: []string{"K"}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVecFallbackUnsupportedExpr: CASE expressions are outside the
// kernels' reach; the vector engine falls back per call.
func TestVecFallbackUnsupportedExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	detail := randDetail(rng, 60)
	b := diffBase(t, detail)
	md := MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("sum(CASE WHEN F.Q > 0 THEN F.Q ELSE 0 END) AS pos"),
		}},
		Thetas: []expr.Expr{expr.MustParse("F.K = B.K")},
	}
	want, err := EvalSub(b, detail, md, SubOpts{Engine: EngineRow})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalSub(b, detail, md, SubOpts{Engine: EngineVector})
	if err != nil {
		t.Fatal(err)
	}
	if d := exactRows(want, got); d != "" {
		t.Fatal(d)
	}
}

// TestEngineSelection: EngineAuto evaluates on the vectorized kernels,
// and SubOpts.Engine = EngineRow keeps them out of it entirely.
func TestEngineSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	detail := randDetail(rng, 40)
	b := diffBase(t, detail)
	md := diffMDs()[0]
	for _, tc := range []struct {
		engine Engine
		vec    bool
	}{{EngineAuto, true}, {EngineRow, false}} {
		o := obs.New()
		if _, err := EvalSub(b, detail, md, SubOpts{Engine: tc.engine, Obs: o}); err != nil {
			t.Fatal(err)
		}
		if got := metricValue(o, "vec.rows"); (got > 0) != tc.vec {
			t.Errorf("engine %v: vec.rows = %d, want vectorized = %v", tc.engine, got, tc.vec)
		}
	}
}

// TestVecObsCounters: a vectorized evaluation publishes its work.
func TestVecObsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	detail := randDetail(rng, 100)
	b := diffBase(t, detail)
	o := obs.New()
	if _, err := EvalSub(b, detail, diffMDs()[0], SubOpts{Engine: EngineVector, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(o, "vec.batches"); got <= 0 {
		t.Fatalf("vec.batches = %d, want > 0", got)
	}
	if got := metricValue(o, "vec.rows"); got <= 0 {
		t.Fatalf("vec.rows = %d, want > 0", got)
	}
}

// metricValue reads one counter from an Obs registry.
func metricValue(o *obs.Obs, name string) int64 {
	return o.Metrics.CounterValue(name)
}

// TestVecDetailBatchReuse: a pre-built batch (the site-side cache) gives
// the same answer as on-the-fly conversion.
func TestVecDetailBatchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	detail := randDetail(rng, 80)
	b := diffBase(t, detail)
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	md := diffMDs()[0]
	want, err := EvalSub(b, detail, md, SubOpts{Engine: EngineVector})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalSub(b, detail, md, SubOpts{Engine: EngineVector, DetailBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if d := exactRows(want, got); d != "" {
		t.Fatal(d)
	}
}

// TestVecErrorPresenceMatchesRow: evaluation errors (here a string
// compared against a number) surface from both engines.
func TestVecErrorPresenceMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	detail := randDetail(rng, 30)
	b := diffBase(t, detail)
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
		Thetas: []expr.Expr{expr.MustParse("F.K = B.K AND F.G > 5")},
	}
	_, rowErr := EvalSub(b, detail, md, SubOpts{Engine: EngineRow})
	_, vecErr := EvalSub(b, detail, md, SubOpts{Engine: EngineVector})
	if rowErr == nil || vecErr == nil {
		t.Fatalf("row err %v, vec err %v: both engines must fail", rowErr, vecErr)
	}
	if !strings.Contains(vecErr.Error(), "θ_1") {
		t.Fatalf("vec error %q not attributed to its condition", vecErr)
	}
}
