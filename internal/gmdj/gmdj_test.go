package gmdj

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// flowRel builds a small Flow-like detail relation:
// (SourceAS, DestAS, NumBytes).
func flowRel(rows ...[3]int64) *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
	r := relation.New(s)
	for _, t := range rows {
		r.MustAppend(value.NewInt(t[0]), value.NewInt(t[1]), value.NewInt(t[2]))
	}
	return r
}

var testFlow = [][3]int64{
	{1, 10, 100}, {1, 10, 300}, {1, 10, 200},
	{2, 10, 50}, {2, 10, 150},
	{1, 20, 500},
}

// example1Query is the paper's Example 1: per (SourceAS, DestAS), the
// total number of flows and the number of flows with NumBytes above the
// group average.
func example1Query() Query {
	return Query{
		Base: BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []MD{
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

func TestExample1Centralized(t *testing.T) {
	detail := flowRel(testFlow...)
	out, err := EvalQuery(detail, example1Query())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.SortBy("SourceAS", "DestAS"); err != nil {
		t.Fatal(err)
	}
	// Groups: (1,10): cnt1=3 sum1=600 avg=200 → cnt2 = #{300,200} = 2
	//         (1,20): cnt1=1 sum1=500 avg=500 → cnt2 = 1
	//         (2,10): cnt1=2 sum1=200 avg=100 → cnt2 = 1
	want := [][5]int64{
		{1, 10, 3, 600, 2},
		{1, 20, 1, 500, 1},
		{2, 10, 2, 200, 1},
	}
	if out.Len() != len(want) {
		t.Fatalf("rows = %d, want %d\n%s", out.Len(), len(want), out)
	}
	for i, w := range want {
		for j := 0; j < 5; j++ {
			got, err := out.Rows[i][j].AsInt()
			if err != nil || got != w[j] {
				t.Errorf("row %d col %d = %v, want %d", i, j, out.Rows[i][j], w[j])
			}
		}
	}
}

// TestTheorem1 verifies the synchronization theorem: evaluating
// sub-aggregates against each partition and merging equals evaluating
// against the whole relation.
func TestTheorem1(t *testing.T) {
	detail := flowRel(testFlow...)
	md := example1Query().MDs[0]
	b, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}

	whole, err := Eval(b, detail, md)
	if err != nil {
		t.Fatal(err)
	}

	// Partition rows round-robin over 3 "sites".
	parts := make([]*relation.Relation, 3)
	for i := range parts {
		parts[i] = relation.New(detail.Schema)
	}
	for i, row := range detail.Rows {
		parts[i%3].Rows = append(parts[i%3].Rows, row)
	}

	// Merge sub-aggregate fragments keyed on (SourceAS, DestAS).
	specs := md.Specs()
	merged := agg.NewSlab(specs, 0)
	groups := make(map[string]int)
	for _, part := range parts {
		h, err := EvalSub(b, part, md, SubOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range h.Rows {
			key := relation.RowKey(row, []int{0, 1})
			g, ok := groups[key]
			if !ok {
				g = merged.AddGroup()
				groups[key] = g
			}
			for p := 0; p < merged.Width(); p++ {
				if err := merged.Merge(g, p, row[2+p]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, wrow := range whole.Rows {
		g, ok := groups[relation.RowKey(wrow, []int{0, 1})]
		if !ok {
			t.Fatalf("group %v missing from merged result", wrow[:2])
		}
		for si, s := range specs {
			got, err := merged.Finalize(g, si)
			if err != nil {
				t.Fatal(err)
			}
			if want := wrow[2+si]; !value.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
				t.Errorf("group %v agg %s: merged %v, whole %v", wrow[:2], s.As, got, want)
			}
		}
	}
}

func TestEvalSubTouched(t *testing.T) {
	detail := flowRel(testFlow...)
	// Base contains a group with no matching detail rows.
	b, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}
	b.MustAppend(value.NewInt(99), value.NewInt(99))

	md := example1Query().MDs[0]
	h, err := EvalSub(b, detail, md, SubOpts{Touched: true})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := h.Schema.MustLookup(TouchedCol)
	if err != nil {
		t.Fatal(err)
	}
	var untouched int
	for _, row := range h.Rows {
		if row[ti].Int() == 0 {
			untouched++
			if row[0].Int() != 99 {
				t.Errorf("unexpected untouched group %v", row[:2])
			}
		}
	}
	if untouched != 1 {
		t.Errorf("untouched groups = %d, want 1", untouched)
	}
}

func TestEvalSubFinalize(t *testing.T) {
	detail := flowRel(testFlow...)
	b, _ := EvalBase(detail, BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	md := example1Query().MDs[0]
	h, err := EvalSub(b, detail, md, SubOpts{Finalize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Prim columns and finalized columns both present.
	for _, name := range []string{"cnt1__p0", "sum1__p0", "cnt1", "sum1"} {
		if _, ok := h.Schema.Lookup(name); !ok {
			t.Errorf("column %s missing from finalized sub result (%s)", name, h.Schema)
		}
	}
	// Finalized values match full Eval.
	full, err := Eval(b, detail, md)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := h.Schema.MustLookup("cnt1")
	cj, _ := full.Schema.MustLookup("cnt1")
	for i := range h.Rows {
		if h.Rows[i][ci] != full.Rows[i][cj] {
			t.Errorf("row %d cnt1: sub %v full %v", i, h.Rows[i][ci], full.Rows[i][cj])
		}
	}
}

func TestValidateErrors(t *testing.T) {
	detail := flowRel(testFlow...)
	b, _ := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})

	bad := []MD{
		{ // arity mismatch
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS"), expr.MustParse("TRUE")},
		},
		{ // no conditions
		},
		{ // unbindable condition
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
			Thetas: []expr.Expr{expr.MustParse("F.Nope = B.SourceAS")},
		},
		{ // duplicate output name vs base column
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS SourceAS")}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		},
		{ // aggregate arg referencing base side
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("sum(B.SourceAS) AS s")}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		},
		{ // empty output name
			Aggs:   [][]agg.Spec{{{Func: agg.Count}}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		},
	}
	for i, md := range bad {
		if _, err := Eval(b, detail, md); err == nil {
			t.Errorf("bad MD %d accepted", i)
		}
	}
}

func TestNoEquiConditionFallsBackToNestedLoop(t *testing.T) {
	detail := flowRel(testFlow...)
	b, _ := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	// Pure inequality: every r is compared against every b.
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
		Thetas: []expr.Expr{expr.MustParse("F.NumBytes > B.SourceAS * 100")},
	}
	out, err := Eval(b, detail, md)
	if err != nil {
		t.Fatal(err)
	}
	out.SortBy("SourceAS")
	// SourceAS=1: rows with NumBytes>100: {300,200,150,500} = 4
	// SourceAS=2: rows with NumBytes>200: {300,500} = 2
	if out.Rows[0][1].Int() != 4 || out.Rows[1][1].Int() != 2 {
		t.Errorf("nested-loop GMDJ wrong:\n%s", out)
	}
}

// TestOverlappingRNG exercises the case the paper highlights: RNG sets of
// different base tuples overlap, which plain GROUP BY cannot express.
func TestOverlappingRNG(t *testing.T) {
	detail := flowRel([3]int64{1, 0, 10}, [3]int64{2, 0, 20}, [3]int64{3, 0, 30})
	b, _ := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	// Count rows whose SourceAS is within 1 of b's: windows overlap.
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}},
		Thetas: []expr.Expr{expr.MustParse("F.SourceAS >= B.SourceAS - 1 AND F.SourceAS <= B.SourceAS + 1")},
	}
	out, err := Eval(b, detail, md)
	if err != nil {
		t.Fatal(err)
	}
	out.SortBy("SourceAS")
	want := []int64{2, 3, 2}
	for i, w := range want {
		if out.Rows[i][1].Int() != w {
			t.Errorf("window count for AS %d = %v, want %d", i+1, out.Rows[i][1], w)
		}
	}
}

func TestEvalBaseWhere(t *testing.T) {
	detail := flowRel(testFlow...)
	b, err := EvalBase(detail, BaseDef{
		Cols:  []string{"SourceAS"},
		Where: expr.MustParse("F.NumBytes >= 200"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.Rows[0][0].Int() != 1 {
		t.Errorf("filtered base = %s", b)
	}
	if _, err := EvalBase(detail, BaseDef{Cols: []string{"Nope"}}); err == nil {
		t.Error("bad base column accepted")
	}
	if _, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}, Where: expr.MustParse("B.x = 1")}); err == nil {
		t.Error("base filter referencing base side accepted")
	}
}

func TestQuerySchemas(t *testing.T) {
	detail := flowRel(testFlow...)
	q := example1Query()
	res, err := EvalQuery(detail, q)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Schema
	wantCols := []string{"SourceAS", "DestAS", "cnt1", "sum1", "cnt2"}
	if rs.Len() != len(wantCols) {
		t.Fatalf("result schema = %s", rs)
	}
	for i, w := range wantCols {
		if rs.Cols[i].Name != w {
			t.Errorf("col %d = %s, want %s", i, rs.Cols[i].Name, w)
		}
	}
	if got := q.Keys(); len(got) != 2 || got[0] != "SourceAS" {
		t.Errorf("Keys = %v", got)
	}
	if err := q.ValidateOn(map[string]*relation.Schema{"": detail.Schema}, ""); err != nil {
		t.Errorf("ValidateOn: %v", err)
	}
}

// coalescableQuery has two MDs whose second condition does not reference
// the first MD's outputs.
func coalescableQuery() Query {
	return Query{
		Base: BaseDef{Cols: []string{"SourceAS", "DestAS"}},
		MDs: []MD{
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS cnt1")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS")},
			},
			{
				Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS cnt2")}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS AND F.NumBytes > 100")},
			},
		},
	}
}

func TestCoalesce(t *testing.T) {
	detail := flowRel(testFlow...)

	q := coalescableQuery()
	cq, n, err := Coalesce(q, detail.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(cq.MDs) != 1 {
		t.Fatalf("coalesced to %d MDs (%d merges)", len(cq.MDs), n)
	}
	// Results must be identical.
	a, err := EvalQuery(detail, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvalQuery(detail, cq)
	if err != nil {
		t.Fatal(err)
	}
	a.SortBy("SourceAS", "DestAS")
	b.SortBy("SourceAS", "DestAS")
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !value.Equal(a.Rows[i][j], b.Rows[i][j]) {
				t.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}

	// Example 1 is NOT coalescable (θ2 references sum1/cnt1).
	q2 := example1Query()
	cq2, n2, err := Coalesce(q2, detail.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 || len(cq2.MDs) != 2 {
		t.Errorf("correlated query wrongly coalesced (%d merges)", n2)
	}
}

func TestCoalesceAliasMismatch(t *testing.T) {
	detail := flowRel(testFlow...)
	q := coalescableQuery()
	q.MDs[1].DetailAlias = "X"
	q.MDs[1].Thetas = []expr.Expr{expr.MustParse("X.SourceAS = B.SourceAS")}
	_, n, err := Coalesce(q, detail.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Error("MDs with different aliases coalesced")
	}
}

// TestRandomizedCentralizedConsistency cross-checks the hash-partitioned
// evaluation against a naive nested-loop evaluation on random data.
func TestRandomizedCentralizedConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var rows [][3]int64
		n := rng.Intn(50) + 1
		for i := 0; i < n; i++ {
			rows = append(rows, [3]int64{int64(rng.Intn(5)), int64(rng.Intn(4)), int64(rng.Intn(1000))})
		}
		detail := flowRel(rows...)
		b, err := EvalBase(detail, BaseDef{Cols: []string{"SourceAS", "DestAS"}})
		if err != nil {
			t.Fatal(err)
		}
		// Equi form (hash path) vs arithmetic-equality form (nested loop).
		mdHash := MD{
			Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS c"), agg.MustParseSpec("avg(F.NumBytes) AS a")}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS")},
		}
		mdLoop := MD{
			Aggs: [][]agg.Spec{{agg.MustParseSpec("count(*) AS c"), agg.MustParseSpec("avg(F.NumBytes) AS a")}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.SourceAS - B.SourceAS = 0 AND F.DestAS - B.DestAS = 0")},
		}
		x, err := Eval(b, detail, mdHash)
		if err != nil {
			t.Fatal(err)
		}
		y, err := Eval(b, detail, mdLoop)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x.Rows {
			for j := range x.Rows[i] {
				xv, yv := x.Rows[i][j], y.Rows[i][j]
				if xv.IsNull() && yv.IsNull() {
					continue
				}
				if xv.K == value.KindFloat || yv.K == value.KindFloat {
					xf, _ := xv.AsFloat()
					yf, _ := yv.AsFloat()
					if math.Abs(xf-yf) > 1e-9 {
						t.Fatalf("trial %d row %d col %d: %v vs %v", trial, i, j, xv, yv)
					}
					continue
				}
				if !value.Equal(xv, yv) {
					t.Fatalf("trial %d row %d col %d: %v vs %v", trial, i, j, xv, yv)
				}
			}
		}
	}
}

func TestMultipleThetasOneMD(t *testing.T) {
	// A single MD with two grouping variables (the coalesced form).
	detail := flowRel(testFlow...)
	b, _ := EvalBase(detail, BaseDef{Cols: []string{"SourceAS"}})
	md := MD{
		Aggs: [][]agg.Spec{
			{agg.MustParseSpec("count(*) AS total")},
			{agg.MustParseSpec("count(*) AS big")},
		},
		Thetas: []expr.Expr{
			expr.MustParse("F.SourceAS = B.SourceAS"),
			expr.MustParse("F.SourceAS = B.SourceAS AND F.NumBytes > 150"),
		},
	}
	out, err := Eval(b, detail, md)
	if err != nil {
		t.Fatal(err)
	}
	out.SortBy("SourceAS")
	// AS 1: total 4, big {300,200,500} = 3; AS 2: total 2, big 0.
	if out.Rows[0][1].Int() != 4 || out.Rows[0][2].Int() != 3 {
		t.Errorf("AS1 = %v", out.Rows[0])
	}
	if out.Rows[1][1].Int() != 2 || out.Rows[1][2].Int() != 0 {
		t.Errorf("AS2 = %v", out.Rows[1])
	}
}
