package gmdj

import (
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/value"
	"repro/internal/vec"
)

// benchDetail builds an n-row detail relation with g distinct groups.
func benchDetail(n, g int) *relation.Relation {
	rng := rand.New(rand.NewSource(1))
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	))
	r.Rows = make([]relation.Row, n)
	for i := range r.Rows {
		r.Rows[i] = relation.Row{
			value.NewInt(int64(rng.Intn(g))),
			value.NewInt(int64(rng.Intn(8))),
			value.NewInt(int64(rng.Intn(100000))),
		}
	}
	return r
}

// BenchmarkEvalHashPath measures the hash-partitioned GMDJ scan (equality
// conjuncts present): the hot path of every site round.
func BenchmarkEvalHashPath(b *testing.B) {
	detail := benchDetail(20000, 500)
	base, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	if err != nil {
		b.Fatal(err)
	}
	md := MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("count(*) AS c"),
			agg.MustParseSpec("avg(F.NumBytes) AS a"),
		}},
		Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(base, detail, md); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(detail.Len()))
}

// BenchmarkEvalNestedLoop measures the fallback path without equality
// conjuncts (every base row tested per detail row).
func BenchmarkEvalNestedLoop(b *testing.B) {
	detail := benchDetail(2000, 20)
	base, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	if err != nil {
		b.Fatal(err)
	}
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
		Thetas: []expr.Expr{expr.MustParse("F.NumBytes > B.SourceAS * 1000")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(base, detail, md); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSubTouched measures the sub-aggregate site path with the
// group-reduction counter on.
func BenchmarkEvalSubTouched(b *testing.B) {
	detail := benchDetail(20000, 500)
	base, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	if err != nil {
		b.Fatal(err)
	}
	md := MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("count(*) AS c"),
			agg.MustParseSpec("avg(F.NumBytes) AS a"),
		}},
		Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalSub(base, detail, md, SubOpts{Touched: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalBase measures distinct projection over the detail scan.
func BenchmarkEvalBase(b *testing.B) {
	detail := benchDetail(20000, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS", "DestAS"}}); err != nil {
			b.Fatal(err)
		}
	}
}

// The kernel-chain benchmarks pit the row reference against the vectorized
// evaluation on the Fig. 2 / Fig. 4 operator chain at full dataset scale
// (48 000 TPCR rows, 4 000 CustName groups): MD1 computes COUNT and AVG per
// group, MD2 correlates with MD1's average, so the chain cannot coalesce
// and both the equi-probe and the residual-comparison kernels run. These
// reproduce the kernel rows of EXPERIMENTS.md "Vectorized engine".
func chainSetup(b *testing.B) (base, detail *relation.Relation, md1, md2 MD) {
	b.Helper()
	detail = tpcr.Generate(tpcr.Config{Rows: 48000, Customers: 4000, LowCardGroups: 2000, Seed: 1})
	base, err := EvalBase(detail, BaseDef{Cols: []string{"CustName"}})
	if err != nil {
		b.Fatal(err)
	}
	const eq = "F.CustName = B.CustName"
	md1 = MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("count(*) AS cnt1"),
			agg.MustParseSpec("avg(F.Quantity) AS avg1"),
		}},
		Thetas: []expr.Expr{expr.MustParse(eq)},
	}
	md2 = MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("count(*) AS cnt2"),
			agg.MustParseSpec("avg(F.ExtendedPrice) AS avg2"),
		}},
		Thetas: []expr.Expr{expr.MustParse(eq + " AND F.Quantity >= B.avg1")},
	}
	return base, detail, md1, md2
}

func BenchmarkChainRow(b *testing.B) {
	base, detail, md1, md2 := chainSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out1, err := eval(base, detail, md1, true, true, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval(out1, detail, md2, true, true, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainVec(b *testing.B) {
	base, detail, md1, md2 := chainSetup(b)
	batch, err := vec.FromRelation(detail)
	if err != nil {
		b.Fatal(err)
	}
	opts := SubOpts{Finalize: true, Workers: 1, DetailBatch: batch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var chain Chain
		out1, err := chain.EvalSub(base, detail, md1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chain.EvalSub(out1, detail, md2, opts); err != nil {
			b.Fatal(err)
		}
	}
}
