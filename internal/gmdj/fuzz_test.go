package gmdj

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// FuzzVecVsRow is the differential fuzzer: a seeded generator expands
// (seed, size, shape) into a mixed-kind detail relation and an MD, and the
// vectorized evaluation must agree with the row reference — byte-exact
// results on success, and matching error presence on failure. Shapes
// rotate through the kernel families (equi probe, nested loop, string
// keys, LIKE/IN/BETWEEN, arithmetic with NULLs, multi-θ, CASE and scalar
// calls); on top of the fixed battery every input also evaluates an MD
// whose residual and aggregate argument are random CASE/call trees
// (fuzzExpr). The base-values query goes through the same wringer first:
// the columnar path must produce the row path's groups in the row path's
// order, with and without a WHERE.
func FuzzVecVsRow(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0))
	f.Add(int64(2), uint8(50), uint8(1))
	f.Add(int64(3), uint8(7), uint8(2))
	f.Add(int64(4), uint8(120), uint8(3))
	f.Add(int64(5), uint8(0), uint8(0))
	f.Add(int64(6), uint8(60), uint8(4))
	f.Add(int64(7), uint8(60), uint8(5))
	f.Add(int64(8), uint8(60), uint8(6))
	f.Add(int64(9), uint8(200), uint8(7))
	f.Add(int64(10), uint8(90), uint8(8))
	f.Add(int64(11), uint8(90), uint8(9))
	f.Add(int64(12), uint8(90), uint8(10))
	f.Add(int64(13), uint8(90), uint8(11))
	// Shape 8 is mixedKeyMD: θs on two key groupings and one on none.
	f.Add(int64(14), uint8(150), uint8(8))
	f.Add(int64(15), uint8(250), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		detail := fuzzDetail(rng, int(size))
		b, err := EvalBase(detail, BaseDef{Cols: []string{"K", "G"}})
		if err != nil {
			t.Skip()
		}
		mds := diffMDs()
		md := mds[int(shape)%len(mds)]
		if _, err := vec.FromRelation(detail); err != nil {
			// A value strayed from its column's kind: refused, whatever the
			// query. The rest of the input runs on the coerced relation.
			if _, err := EvalSub(b, detail, md, SubOpts{}); err == nil || !strings.Contains(err.Error(), "declared INT holds FLOAT") {
				t.Fatalf("mixed-kind detail relation evaluated: err %v", err)
			}
			detail = coerceStrays(detail)
		}
		fuzzBase(t, detail, int(shape))
		random := MD{
			Aggs: [][]agg.Spec{{
				{Func: agg.Sum, Arg: fuzzExpr(rng, 3), As: "rs"},
				{Func: agg.Min, Arg: fuzzExpr(rng, 3), As: "rm"},
			}},
			Thetas: []expr.Expr{expr.Binary{Op: "AND", L: expr.MustParse("F.K = B.K"), R: fuzzExpr(rng, 3)}},
		}
		// A base keyed on P as well holds its NaN, ±0 and NULL values, which
		// a conjunction of numeric comparisons reads per base row.
		bp, err := EvalBase(detail, BaseDef{Cols: []string{"K", "P"}})
		if err != nil {
			t.Fatal(err)
		}
		numeric := MD{
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS nc"), agg.MustParseSpec("sum(F.P) AS np")}},
			Thetas: []expr.Expr{fuzzNumericConj(rng)},
		}
		for _, tc := range []struct {
			b  *relation.Relation
			md MD
		}{{b, md}, {b, random}, {bp, numeric}} {
			b, md := tc.b, tc.md
			want, rowErr := rowSub(b, detail, md, SubOpts{Finalize: true, Touched: true})
			for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				got, vecErr := EvalSub(b, detail, md, SubOpts{Workers: workers, Finalize: true, Touched: true})
				if (rowErr != nil) != (vecErr != nil) {
					t.Fatalf("W=%d %v: row err %v, vec err %v", workers, md, rowErr, vecErr)
				}
				if rowErr != nil {
					break
				}
				if d := exactRows(want, got); d != "" {
					t.Fatalf("W=%d %v: evaluations diverge: %s", workers, md, d)
				}
			}
		}
	})
}

// fuzzExpr grows a random expression over the detail side: CASE (with and
// without ELSE), coalesce, abs, least, greatest, arithmetic, LIKE and
// comparisons over columns of every kind, NULL and constants of every
// kind. Plenty of them fail for some rows (abs of a string, a string
// compared with a number); error presence is what the fuzzer compares then.
func fuzzExpr(rng *rand.Rand, depth int) expr.Expr {
	leaves := []string{"F.Q", "F.P", "F.K", "F.G", "F.Flag", "NULL", "0", "7", "2.5", "-100", "'beta'"}
	if depth == 0 || rng.Intn(4) == 0 {
		return expr.MustParse(leaves[rng.Intn(len(leaves))])
	}
	sub := func() expr.Expr { return fuzzExpr(rng, depth-1) }
	switch rng.Intn(8) {
	case 0:
		c := expr.Case{Whens: []expr.When{{Cond: sub(), Then: sub()}}}
		if rng.Intn(2) == 0 {
			c.Whens = append(c.Whens, expr.When{Cond: sub(), Then: sub()})
		}
		if rng.Intn(3) > 0 {
			c.Else = sub()
		}
		return c
	case 1:
		return expr.Call{Name: "coalesce", Args: []expr.Expr{sub(), sub(), sub()}}
	case 2:
		return expr.Call{Name: "abs", Args: []expr.Expr{sub()}}
	case 3:
		return expr.Call{Name: []string{"least", "greatest"}[rng.Intn(2)], Args: []expr.Expr{sub(), sub()}}
	case 4:
		return expr.Binary{Op: []string{"+", "-", "*", "/", "%"}[rng.Intn(5)], L: sub(), R: sub()}
	case 5:
		return expr.Unary{Op: []string{"-", "NOT"}[rng.Intn(2)], X: sub()}
	case 6:
		return expr.Like{X: sub(), Pattern: "%a%", Neg: rng.Intn(2) == 0}
	default:
		return expr.Binary{Op: []string{"=", "<", ">=", "AND", "OR"}[rng.Intn(5)], L: sub(), R: sub()}
	}
}

// fuzzNumericConj is an equi θ conjoined with one to three comparisons of
// a numeric detail column against a base column, in random operand order.
func fuzzNumericConj(rng *rand.Rand) expr.Expr {
	var e expr.Expr = expr.MustParse("F.K = B.K")
	for n := rng.Intn(3) + 1; n > 0; n-- {
		x := expr.Col{Qual: "F", Name: []string{"P", "Q", "K", "Flag"}[rng.Intn(4)]}
		y := expr.Col{Qual: "B", Name: []string{"P", "K"}[rng.Intn(2)]}
		c := expr.Binary{Op: []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)], L: x, R: y}
		if rng.Intn(2) == 0 {
			c.L, c.R = y, x
		}
		e = expr.Binary{Op: "AND", L: e, R: c}
	}
	return e
}

// baseWheres are the base-values filters the fuzzer rotates through: none,
// predicates over every column kind, one that raises the row engine's
// compare error, CASE and every scalar call, and a CASE arm that fails for
// the rows that reach it.
var baseWheres = []string{
	"",
	"F.Q > 0",
	"F.P / 2 < 10 OR F.Flag",
	"F.G LIKE '%a%' AND F.K IN (1, 2)",
	"NOT (F.Q BETWEEN -100 AND 100)",
	"F.G > 1",
	"CASE WHEN F.Q > 0 THEN 1 ELSE 0 END = 1",
	"CASE WHEN F.Flag THEN F.Q WHEN F.P > 0 THEN F.P END > 10",
	"coalesce(F.Q, F.P, 0) > 0 AND abs(F.Q) < 300",
	"least(F.Q, F.P) < -50 OR greatest(F.Q, F.P, F.K) > 100",
	"CASE WHEN F.Q > 450 THEN abs(F.G) ELSE F.Q END > 0",
}

// fuzzBase checks, for three key sets and the shape's filter, that the
// base EvalBaseFrame frames from the batch's lanes is byte for byte the
// frame of EvalBase's rows.
func fuzzBase(t *testing.T, detail *relation.Relation, shape int) {
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	where := baseWheres[shape%len(baseWheres)]
	for _, cols := range [][]string{{"K", "G"}, {"P"}, {"Flag", "Q"}} {
		def := BaseDef{Cols: cols}
		if where != "" {
			def.Where = expr.MustParse(where)
		}
		want, rowErr := EvalBase(detail, def)
		got, vecErr := new(Chain).EvalBaseFrame(batch, &def)
		if (rowErr != nil) != (vecErr != nil) {
			t.Fatalf("π_%v WHERE %s: row err %v, vec err %v", cols, where, rowErr, vecErr)
		}
		if rowErr != nil {
			continue
		}
		boxed, err := relation.FrameOf(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), boxed.Bytes()) {
			t.Fatalf("π_%v WHERE %s: the base framed from the lanes is not the frame of EvalBase's rows", cols, where)
		}
	}
}

// fuzzDetail is randDetail plus fuzz-only hostility: occasional kind
// strays in the Q column (a relation the site refuses), NaN, ±0, ±Inf and
// floats either side of ±2^53 in the P column, Q lanes at the int64
// extremes and either side of ±2^53 (so an INT detail lane meets every
// one of those FLOAT base values in fuzzNumericConj), and duplicated rows.
// Floats stay within int64 range: Key() overflows int64 conversion on
// out-of-range integral floats, which is platform-defined and not a
// contract either evaluation needs to chase.
func fuzzDetail(rng *rand.Rand, n int) *relation.Relation {
	const p53 = 1 << 53
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		p53, -p53, p53 - 1, p53 + 2, -p53 - 2, 2.5, -0.5, 0x1p63, -0x1p63}
	ints := []int64{math.MinInt64, math.MaxInt64, p53, -p53, p53 + 1, -p53 - 1, p53 - 1, 2, -1}
	r := randDetail(rng, n)
	for i := range r.Rows {
		if rng.Intn(40) == 0 {
			r.Rows[i][2] = value.NewFloat(float64(rng.Intn(100)) / 4) // Float straying into the Int column
		} else if rng.Intn(12) == 0 {
			r.Rows[i][2] = value.NewInt(ints[rng.Intn(len(ints))])
		}
		if rng.Intn(10) == 0 {
			r.Rows[i][3] = value.NewFloat(floats[rng.Intn(len(floats))])
		}
		if rng.Intn(20) == 0 && i > 0 {
			r.Rows[i] = r.Rows[i-1]
		}
	}
	return r
}

// coerceStrays returns the relation with the strays of fuzzDetail back in
// their column's kind.
func coerceStrays(detail *relation.Relation) *relation.Relation {
	detail = detail.Clone()
	for _, row := range detail.Rows {
		if row[2].K == value.KindFloat {
			row[2] = value.NewInt(int64(row[2].Float()))
		}
	}
	return detail
}
