package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/value"
)

// filterRel is the detail side of the filter tests: every column kind a
// comparison kernel reads — int, float with NaN and ±0, bool — plus an
// int column that is all NULL, a NULL-kind column, columns with some
// NULLs and a string column.
func filterRel(rng *rand.Rand, n int) *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "I", Kind: value.KindInt},
		relation.Column{Name: "F", Kind: value.KindFloat},
		relation.Column{Name: "B", Kind: value.KindBool},
		relation.Column{Name: "Z", Kind: value.KindInt},
		relation.Column{Name: "N", Kind: value.KindNull},
		relation.Column{Name: "IN", Kind: value.KindInt},
		relation.Column{Name: "FN", Kind: value.KindFloat},
		relation.Column{Name: "S", Kind: value.KindString},
	))
	ints := []int64{-3, 0, 1, 2, 5, 1<<53 + 1, math.MinInt64}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, 2, 5, 1 << 53, math.Inf(1), math.Inf(-1), -2.5}
	strs := []string{"", "a", "b", "ab"}
	pick := func(vals []value.V) value.V { return vals[rng.Intn(len(vals))] }
	for i := 0; i < n; i++ {
		iv := value.NewInt(ints[rng.Intn(len(ints))])
		fv := value.NewFloat(floats[rng.Intn(len(floats))])
		row := []value.V{
			iv, fv, value.NewBool(rng.Intn(2) == 0), value.Null, value.Null,
			pick([]value.V{iv, value.NewInt(ints[rng.Intn(len(ints))]), value.Null}),
			pick([]value.V{fv, value.NewFloat(floats[rng.Intn(len(floats))]), value.Null}),
			pick([]value.V{value.NewString(strs[rng.Intn(len(strs))]), value.Null}),
		}
		r.MustAppend(row...)
	}
	return r
}

// filterBase is the base side: one column per kind of per-base-row scalar.
var filterBase = relation.MustSchema(
	relation.Column{Name: "bi", Kind: value.KindInt},
	relation.Column{Name: "bf", Kind: value.KindFloat},
	relation.Column{Name: "bnan", Kind: value.KindFloat},
	relation.Column{Name: "bnull", Kind: value.KindInt},
	relation.Column{Name: "bb", Kind: value.KindBool},
	relation.Column{Name: "bz", Kind: value.KindFloat},
	relation.Column{Name: "bs", Kind: value.KindString},
)

func filterBaseRow() relation.Row {
	return relation.Row{value.NewInt(2), value.NewFloat(1.5), value.NewFloat(math.NaN()), value.Null,
		value.NewBool(true), value.NewFloat(math.Copysign(0, -1)), value.NewString("a")}
}

// filterAgrees runs e as a compiled filter over sel and as the bound row
// predicate over the same lanes, and reports the first difference in the
// selection or in error presence ("" when they agree).
func filterAgrees(e expr.Expr, r *relation.Relation, b *Batch, base relation.Row, sel Sel) string {
	bd := expr.Binding{Base: filterBase, Detail: r.Schema, BaseAliases: []string{"B"}, DetailAliases: []string{"R"}}
	bound, err := expr.Bind(e, bd)
	if err != nil {
		return fmt.Sprintf("%s: bind: %v", e, err)
	}
	p, err := Compile(e, bd, b, new(Scratch))
	if err != nil {
		return fmt.Sprintf("%s: compile: %v", e, err)
	}
	p.SetBase(base)
	got, vecErr := p.Filter(sel)
	var want []int32
	var rowErr error
	for _, lane := range sel.lanes {
		ok, err := bound.EvalBool(base, r.Rows[lane])
		if err != nil {
			rowErr = err
			break
		}
		if ok {
			want = append(want, lane)
		}
	}
	switch {
	case (rowErr != nil) != (vecErr != nil):
		return fmt.Sprintf("%s: row err %v, filter err %v", e, rowErr, vecErr)
	case rowErr == nil && fmt.Sprint(got.lanes) != fmt.Sprint(want):
		return fmt.Sprintf("%s: selected %v, row predicate %v", e, got, want)
	}
	return ""
}

// filterComparisonMatrix is TestFilterMatchesRowPredicate's matrix: every
// comparison operator, over every column kind, against an int, float, NaN,
// NULL or bool constant and the same values as per-base-row scalars, in
// both operand orders and under AND / OR / NOT nestings, selects lane for
// lane what the row predicate selects.
func filterComparisonMatrix(t *testing.T) {
	r := filterRel(rand.New(rand.NewSource(1)), 64)
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	c := func(v value.V) expr.Expr { return expr.Const{Val: v} }
	operands := []expr.Expr{
		c(value.NewInt(2)), c(value.NewFloat(1.5)), c(value.NewFloat(math.NaN())), c(value.Null),
		c(value.NewBool(true)), c(value.NewFloat(math.Copysign(0, -1))),
		expr.Col{Qual: "B", Name: "bi"}, expr.Col{Qual: "B", Name: "bf"}, expr.Col{Qual: "B", Name: "bnan"},
		expr.Col{Qual: "B", Name: "bnull"}, expr.Col{Qual: "B", Name: "bb"}, expr.Col{Qual: "B", Name: "bz"},
	}
	var atoms []expr.Expr
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		for _, col := range []string{"I", "F", "B", "Z", "N", "IN", "FN"} {
			x := expr.Col{Qual: "R", Name: col}
			for _, y := range operands {
				atoms = append(atoms, expr.Binary{Op: op, L: x, R: y}, expr.Binary{Op: op, L: y, R: x})
			}
		}
	}
	preds := append([]expr.Expr(nil), atoms...)
	for i, a := range atoms {
		x, y := atoms[(i*7+3)%len(atoms)], atoms[(i*13+5)%len(atoms)]
		preds = append(preds,
			expr.Binary{Op: "AND", L: a, R: x},
			expr.Binary{Op: "OR", L: a, R: x},
			expr.Unary{Op: "NOT", X: a},
			expr.Binary{Op: "AND", L: expr.Unary{Op: "NOT", X: a}, R: expr.Binary{Op: "OR", L: x, R: y}},
			expr.Binary{Op: "AND", L: expr.Binary{Op: "AND", L: a, R: x}, R: y},
		)
	}
	sel := b.AllLanes()
	for _, e := range preds {
		if d := filterAgrees(e, r, b, filterBaseRow(), sel); d != "" {
			t.Fatal(d)
		}
	}
}

// FuzzFilter is the differential fuzzer of Program.Filter: random
// predicate trees — comparisons of columns, constants and per-base-row
// scalars of every kind (column against column and strings included),
// arithmetic, AND / OR / NOT — over a random detail relation and a random
// selection must select what the row predicate selects, and fail exactly
// when it fails.
func FuzzFilter(f *testing.F) {
	f.Add(int64(1), uint8(40), int64(0))
	f.Add(int64(2), uint8(7), int64(3))
	f.Add(int64(3), uint8(200), int64(9))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, selSeed int64) {
		rng := rand.New(rand.NewSource(seed))
		r := filterRel(rng, int(size))
		b, err := FromRelation(r)
		if err != nil {
			t.Fatal(err)
		}
		sel := b.AllLanes()
		if selSeed != 0 && size > 0 {
			srng := rand.New(rand.NewSource(selSeed))
			var lanes []int32
			for i := srng.Intn(2 * int(size)); i > 0; i-- {
				lanes = append(lanes, int32(srng.Intn(int(size))))
			}
			if sel, err = b.Select(lanes); err != nil {
				t.Fatal(err)
			}
		}
		base := filterBaseRow()
		bases := []value.V{value.NewInt(-3), value.NewFloat(5), value.NewFloat(math.NaN()), value.Null, value.NewBool(false), value.NewFloat(0), value.NewString("b")}
		for i := range base {
			if rng.Intn(2) == 0 {
				base[i] = bases[i]
			}
		}
		for i := 0; i < 8; i++ {
			if d := filterAgrees(fuzzPred(rng, 3), r, b, base, sel); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// fuzzPred grows a random predicate for FuzzFilter.
func fuzzPred(rng *rand.Rand, depth int) expr.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		l, r := fuzzOperand(rng), fuzzOperand(rng)
		if rng.Intn(2) == 0 {
			r = expr.Col{Qual: "R", Name: []string{"I", "F", "B", "IN", "FN", "S"}[rng.Intn(6)]}
		}
		if rng.Intn(8) == 0 {
			return l // a bare operand as the predicate
		}
		return expr.Binary{Op: ops[rng.Intn(len(ops))], L: l, R: r}
	}
	switch rng.Intn(4) {
	case 0:
		return expr.Unary{Op: "NOT", X: fuzzPred(rng, depth-1)}
	case 1:
		return expr.Binary{Op: "OR", L: fuzzPred(rng, depth-1), R: fuzzPred(rng, depth-1)}
	default:
		return expr.Binary{Op: "AND", L: fuzzPred(rng, depth-1), R: fuzzPred(rng, depth-1)}
	}
}

func fuzzOperand(rng *rand.Rand) expr.Expr {
	c := func(v value.V) expr.Expr { return expr.Const{Val: v} }
	leaves := []expr.Expr{
		expr.Col{Qual: "R", Name: "I"}, expr.Col{Qual: "R", Name: "F"}, expr.Col{Qual: "R", Name: "B"},
		expr.Col{Qual: "R", Name: "Z"}, expr.Col{Qual: "R", Name: "N"}, expr.Col{Qual: "R", Name: "IN"},
		expr.Col{Qual: "R", Name: "FN"}, expr.Col{Qual: "R", Name: "S"},
		c(value.NewInt(1)), c(value.NewFloat(-2.5)), c(value.NewFloat(math.NaN())), c(value.Null),
		c(value.NewBool(true)), c(value.NewString("ab")), c(value.NewInt(1<<53 + 1)),
		expr.Col{Qual: "B", Name: "bi"}, expr.Col{Qual: "B", Name: "bf"}, expr.Col{Qual: "B", Name: "bnan"},
		expr.Col{Qual: "B", Name: "bnull"}, expr.Col{Qual: "B", Name: "bb"}, expr.Col{Qual: "B", Name: "bz"},
		expr.Col{Qual: "B", Name: "bs"},
	}
	x := leaves[rng.Intn(len(leaves))]
	if rng.Intn(6) == 0 {
		x = expr.Binary{Op: []string{"+", "*", "/"}[rng.Intn(3)], L: x, R: leaves[rng.Intn(len(leaves))]}
	}
	return x
}

// BenchmarkFilter filters the ~120-lane key groups of a 24 000-row TPCR
// partition (200 CustGroup values), as runs of the grouping's clustered
// view, with the Fig. 5 residuals: an int column against a per-base-row
// float, a float column against a constant, and their conjunction. It
// reports nanoseconds per filtered lane.
func BenchmarkFilter(b *testing.B) {
	part, err := tpcr.GeneratePartition(tpcr.Config{Rows: 24000, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := FromRelation(part)
	if err != nil {
		b.Fatal(err)
	}
	ci, err := part.Schema.MustLookup("CustGroup")
	if err != nil {
		b.Fatal(err)
	}
	g, err := batch.Grouping([]int{ci})
	if err != nil {
		b.Fatal(err)
	}
	var cols []int
	for _, name := range []string{"Quantity", "Discount"} {
		ci, err := part.Schema.MustLookup(name)
		if err != nil {
			b.Fatal(err)
		}
		cols = append(cols, ci)
	}
	view, err := g.View(cols)
	if err != nil {
		b.Fatal(err)
	}
	groups := make([]Sel, g.Len())
	for id := range groups {
		groups[id] = Sel{lanes: batch.identity()[g.offs[id]:g.offs[id+1]], n: batch.Len()}
	}
	baseSchema := relation.MustSchema(relation.Column{Name: "avg1", Kind: value.KindFloat})
	bd := expr.Binding{Base: baseSchema, Detail: part.Schema, BaseAliases: []string{"B"}, DetailAliases: []string{"F"}}
	base := relation.Row{value.NewFloat(25.5)}
	for _, text := range []string{"F.Quantity >= B.avg1", "F.Discount > 0.05", "F.Quantity >= B.avg1 AND F.Discount > 0.05"} {
		b.Run(text, func(b *testing.B) {
			p, err := Compile(expr.MustParse(text), bd, view, new(Scratch))
			if err != nil {
				b.Fatal(err)
			}
			lanes := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sel := range groups {
					p.SetBase(base)
					if _, err = p.Filter(sel); err != nil {
						b.Fatal(err)
					}
					lanes += sel.Len()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lanes), "ns/lane")
		})
	}
}

// TestIntFloatFold: an INT column compared with a FLOAT per-base-row value
// — the comparison foldInt turns into integer bounds — selects, for all six
// operators in both operand orders, exactly the lanes value.Compare orders
// that way. The values are NaN, ±Inf, ±0, integral floats and floats
// either side of ±2^53 against lanes from MinInt64 to MaxInt64, with and
// without NULL lanes, over a run and over a gathered selection.
func TestIntFloatFold(t *testing.T) {
	const p53 = 1 << 53
	xs := []int64{math.MinInt64, math.MinInt64 + 1, -p53 - 2, -p53 - 1, -p53, -p53 + 1, -3, -2, -1, 0, 1, 2, 3,
		p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3, math.MaxInt64 - 1, math.MaxInt64}
	ys := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 2, -2, 2.5, -2.5, 0.5, -0.5,
		p53, -p53, p53 - 1, -p53 + 1, p53 + 2, -p53 - 2, p53 + 4, 1<<52 - 0.5, -1<<52 + 0.5,
		1 << 63, -1 << 63, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	// foldInt's bounds, lane by lane, where it folds.
	for _, y := range ys {
		lo, hi, ok := foldInt(y)
		if !ok {
			if !math.IsInf(y, 0) && math.Abs(y) < p53 {
				t.Errorf("y = %v: not folded", y)
			}
			continue
		}
		for _, x := range xs {
			if (x < lo) != (float64(x) < y) || (x > hi) != (float64(x) > y) {
				t.Errorf("y = %v, x = %d: bounds [%d, %d] disagree with float64(x)", y, x, lo, hi)
			}
		}
	}
	base := relation.MustSchema(relation.Column{Name: "y", Kind: value.KindFloat})
	for _, nulls := range []bool{false, true} {
		r := relation.New(relation.MustSchema(relation.Column{Name: "x", Kind: value.KindInt}))
		for i, x := range xs {
			if v := value.NewInt(x); nulls && i%3 == 1 {
				r.MustAppend(value.Null)
			} else {
				r.MustAppend(v)
			}
		}
		b, err := FromRelation(r)
		if err != nil {
			t.Fatal(err)
		}
		reversed := make([]int32, b.Len())
		for i := range reversed {
			reversed[i] = int32(b.Len() - 1 - i)
		}
		gathered, err := b.Select(reversed)
		if err != nil {
			t.Fatal(err)
		}
		bd := expr.Binding{Base: base, Detail: r.Schema, BaseAliases: []string{"B"}, DetailAliases: []string{"R"}}
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, flip := range []bool{false, true} {
				e := expr.Binary{Op: op, L: expr.Col{Qual: "R", Name: "x"}, R: expr.Col{Qual: "B", Name: "y"}}
				if flip {
					e.L, e.R = e.R, e.L
				}
				p, err := Compile(e, bd, b, new(Scratch))
				if err != nil {
					t.Fatal(err)
				}
				for _, y := range ys {
					p.SetBase(relation.Row{value.NewFloat(y)})
					for _, sel := range []Sel{b.AllLanes(), gathered} {
						got, err := p.Filter(sel)
						if err != nil {
							t.Fatal(err)
						}
						var want []int32
						for _, lane := range sel.lanes {
							xv, yv := r.Rows[lane][0], value.NewFloat(y)
							if xv.IsNull() {
								continue
							}
							if flip {
								xv, yv = yv, xv
							}
							c, err := value.Compare(xv, yv)
							if err != nil {
								t.Fatal(err)
							}
							if cmpHolds[op]>>order(c, 0)&1 != 0 {
								want = append(want, lane)
							}
						}
						if fmt.Sprint(got.lanes) != fmt.Sprint(want) {
							t.Fatalf("%s with y = %v, nulls %v: selected %v, value.Compare %v", e, y, nulls, got.lanes, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelsWarmAllocateNothing: once its buffers have grown, a program
// filters proven selections — runs of a clustered view, with an INT lane
// against a FLOAT base value and a FLOAT lane against a constant — and
// evaluates arguments over the survivors and over the runs without
// allocating: nothing is re-proven into a copy, and every lane buffer is
// the program's own.
func TestKernelsWarmAllocateNothing(t *testing.T) {
	r := filterRel(rand.New(rand.NewSource(3)), 400)
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grouping([]int{7}) // S
	if err != nil {
		t.Fatal(err)
	}
	view, err := g.View([]int{0, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	var runs []Sel
	for _, s := range []string{"", "a", "b", "ab"} {
		if run := g.Find(relation.Row{value.NewString(s)}, []int{0}); run.Len() > 0 {
			runs = append(runs, run)
		}
	}
	bd := expr.Binding{Base: filterBase, Detail: r.Schema, BaseAliases: []string{"B"}, DetailAliases: []string{"R"}}
	cond, err := Compile(expr.MustParse("R.I >= B.bf AND R.F > 0.5"), bd, view, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	args := make([]*Program, 0, 3)
	for _, e := range []expr.Expr{expr.MustParse("R.I"), expr.MustParse("R.F * 2"), expr.Col{Qual: "R", Name: "IN"}} {
		p, err := Compile(e, bd, view, &sc)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, p)
	}
	base := filterBaseRow()
	var sum float64
	fold := func(l *Lanes) error {
		for i := 0; i < l.N; i++ {
			if l.Kind == value.KindFloat {
				sum += l.Floats[i]
			} else if !l.isNull(i) {
				sum += float64(l.Ints[i])
			}
		}
		return nil
	}
	var match Sel
	pass := func() {
		for _, run := range runs {
			cond.SetBase(base)
			if match, err = cond.Filter(run); err != nil {
				t.Fatal(err)
			}
			for _, p := range args {
				p.SetBase(base)
				if err := p.EvalEach(match, fold); err != nil {
					t.Fatal(err)
				}
				if err := p.EvalEach(run, fold); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pass()
	if match.Len() == 0 || sum == 0 {
		t.Fatal("the filter selected nothing or the arguments read nothing")
	}
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("a warm pass allocates %.1f objects", allocs)
	}
}
