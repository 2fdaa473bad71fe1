package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// exact reports the first bit-level difference between two relations
// ("" when identical): kinds, ints, strings and float bit patterns.
func exact(a, b *relation.Relation) string {
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

// keyRel builds a relation over (I Int, F Float, S String, B Bool) from
// rows of values; value.Null is allowed anywhere.
func keyRel(rows ...[]value.V) *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "I", Kind: value.KindInt},
		relation.Column{Name: "F", Kind: value.KindFloat},
		relation.Column{Name: "S", Kind: value.KindString},
		relation.Column{Name: "B", Kind: value.KindBool},
	))
	for _, row := range rows {
		r.MustAppend(row...)
	}
	return r
}

func row(i, f, s, b value.V) []value.V { return []value.V{i, f, s, b} }

var (
	null  = value.Null
	nan   = value.NewFloat(math.NaN())
	nan2  = value.NewFloat(math.Float64frombits(0x7ff8000000000001)) // another NaN payload
	negz  = value.NewFloat(math.Copysign(0, -1))
	posz  = value.NewFloat(0)
	vtrue = value.NewBool(true)
)

// hostileRel exercises every equivalence corner of the distinct
// projection: NULL keys, NaN payloads, ±0, repeated strings, and rows that
// differ only in a non-key column.
func hostileRel() *relation.Relation {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	return keyRel(
		row(i(1), negz, s("a"), vtrue),
		row(i(1), posz, s("a"), vtrue), // -0 came first: ±0 are one key
		row(null, nan, null, null),
		row(null, nan2, null, null), // NaNs are one key whatever the payload
		row(i(2), f(1.5), s("b"), value.NewBool(false)),
		row(i(1), f(1.5), s("a"), vtrue),
		row(i(2), f(1.5), s("b"), vtrue),
		row(i(2), null, s(""), null), // empty string is not NULL
		row(i(2), null, null, null),
		row(i(1), negz, s("a"), null),
		row(i(math.MaxInt64), f(math.Inf(1)), s("a"), vtrue),
		row(i(math.MinInt64), f(math.Inf(-1)), s("b"), vtrue),
		row(i(2), f(1.5), s("b"), value.NewBool(false)),
	)
}

// distinctBoth runs the row reference and the kernel over the selected
// rows of r projected on cols and fails on any difference.
func distinctBoth(t *testing.T, r *relation.Relation, cols []string, sel []int32) *relation.Relation {
	t.Helper()
	src := r
	if sel != nil {
		src = relation.New(r.Schema)
		for _, lane := range sel {
			src.Rows = append(src.Rows, r.Rows[lane])
		}
	}
	want, err := src.DistinctProject(cols)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	if sel == nil {
		sel = b.AllLanes()
	}
	ps, idx, err := r.Schema.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := Distinct(b, idx, sel)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Rows(b, idx, lanes)
	if err != nil {
		t.Fatal(err)
	}
	got := &relation.Relation{Schema: ps, Rows: rows}
	if d := exact(want, got); d != "" {
		t.Fatalf("π_%v over selection %v: kernel diverges from DistinctProject: %s\nwant\n%v\ngot\n%v",
			cols, sel, d, want, got)
	}
	return got
}

func TestDistinctMatchesDistinctProject(t *testing.T) {
	r := hostileRel()
	keys := [][]string{
		{"I"}, {"F"}, {"S"}, {"B"},
		{"I", "S"}, {"S", "I"}, {"F", "B"}, {"I", "F", "S", "B"},
		{}, // the empty key: one group when there is any row
	}
	sels := [][]int32{
		nil,                    // every lane
		{},                     // nothing selected
		{12, 3, 3, 0, 7, 8, 1}, // unordered with a repeat: first-seen is selection order
		{1, 0},                 // +0 before -0
		{3, 2},                 // the other NaN first
	}
	for _, cols := range keys {
		for _, sel := range sels {
			distinctBoth(t, r, cols, sel)
		}
	}
}

func TestDistinctFirstSeenOrder(t *testing.T) {
	s := value.NewString
	r := keyRel(
		row(null, null, s("c"), null),
		row(null, null, s("a"), null),
		row(null, null, s("c"), null),
		row(null, null, s("b"), null),
		row(null, null, s("a"), null),
	)
	got := distinctBoth(t, r, []string{"S"}, nil)
	var order string
	for _, row := range got.Rows {
		order += row[0].S
	}
	if order != "cab" {
		t.Fatalf("group order %q, want first-seen scan order \"cab\"", order)
	}
	// -0 seen first is the representative that is kept, bit for bit.
	z := distinctBoth(t, hostileRel(), []string{"F"}, nil)
	if f := z.Rows[0][0].F; !math.Signbit(f) {
		t.Fatalf("representative of the zero group is %v, want the first-seen -0", f)
	}
}

func TestDistinctEmptyInput(t *testing.T) {
	for _, cols := range [][]string{{"I"}, {"S", "F"}, {}} {
		if got := distinctBoth(t, keyRel(), cols, nil); len(got.Rows) != 0 {
			t.Fatalf("π_%v of the empty relation has %d rows", cols, len(got.Rows))
		}
	}
}

func TestDistinctRejectsBadShape(t *testing.T) {
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distinct(b, []int{0}, []int32{int32(b.Len())}); err == nil {
		t.Error("selection lane past the batch accepted")
	}
	if _, err := Distinct(b, []int{9}, b.AllLanes()); err == nil {
		t.Error("key column out of range accepted")
	}
	if _, err := Rows(b, []int{-1}, b.AllLanes()); err == nil {
		t.Error("Rows accepted a negative column")
	}
	bd := expr.SingleRelation(b.Schema, "R")
	p, err := Compile(expr.MustParse("CASE WHEN R.I > 0 THEN R.F END > 0"), bd, b, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Filter([]int32{-1}, nil); err == nil {
		t.Error("Filter accepted a negative selection lane")
	}
	if err := p.EvalEach([]int32{int32(b.Len())}, func(*Lanes) error { return nil }); err == nil {
		t.Error("EvalEach accepted a selection lane past the batch")
	}
	short := &Batch{Schema: b.Schema, Cols: b.Cols[:1]}
	if _, err := Compile(expr.MustParse("R.I > 0"), bd, short, new(Scratch)); err == nil {
		t.Error("Compile accepted a batch with fewer columns than its schema")
	}
}

// TestGroupingMemoized: the second distinct over the same key reuses the
// batch's grouping — the per-request cost the site engine relies on.
func TestGroupingMemoized(t *testing.T) {
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	g1, err := b.grouping([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := b.grouping([]int{0, 2})
	g3, _ := b.grouping([]int{2, 0})
	if g1 != g2 {
		t.Error("grouping rebuilt for the same key columns")
	}
	if g1 == g3 {
		t.Error("different key column orders share a grouping")
	}
}

func TestRoundTripAndRows(t *testing.T) {
	r := hostileRel()
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ToRelation(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := exact(r, back); d != "" {
		t.Fatalf("round trip: %s", d)
	}
	// Rows are capped at their width: growing one must not reach the next.
	first := append(back.Rows[0], value.NewInt(99))
	if back.Rows[1][0].I == 99 || len(first) != 5 {
		t.Fatal("appending to a row overwrote its neighbour")
	}
	mixed := keyRel(row(value.NewFloat(1), null, null, null)) // Float in the Int column
	if _, err := FromRelation(mixed); err == nil {
		t.Error("mixed-kind column converted")
	}
}

func TestFilterMatchesRowPredicate(t *testing.T) {
	r := hostileRel()
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	bd := expr.SingleRelation(r.Schema, "R", "F")
	for _, text := range []string{
		"R.I = 2", "R.F > 0", "R.S LIKE 'a%' OR R.B", "R.I IN (1, 2) AND NOT (R.F < 1)",
		"R.S = 'b' AND R.I BETWEEN 0 AND 5", "1 = 1", "R.F / 0 > 1",
		"CASE WHEN R.I = 1 THEN 1 ELSE 0 END = 1", "CASE WHEN R.B THEN R.S WHEN R.I > 1 THEN 'ab' END LIKE 'a%'",
		"coalesce(R.F, R.I, 0) > 1", "abs(R.F) >= 1 OR least(R.I, 2) = 2", "greatest(R.I, R.F) > CASE WHEN R.B THEN R.I ELSE R.F END",
	} {
		e := expr.MustParse(text)
		bound, err := expr.Bind(e, bd)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		p, err := Compile(e, bd, b, new(Scratch))
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got, err := p.Filter(b.AllLanes(), nil)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		var want []int32
		for i, row := range r.Rows {
			ok, err := bound.EvalBool(nil, row)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: selected %v, row predicate %v", text, got, want)
		}
	}
}

// TestScratchReuse: programs compiled one generation after another on a
// shared Scratch reuse its buffers after Reset instead of growing new ones.
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := keyRel()
	for i := 0; i < 300; i++ {
		r.MustAppend(value.NewInt(int64(rng.Intn(50))), value.NewFloat(rng.Float64()), value.NewString("x"), vtrue)
	}
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	bd := expr.SingleRelation(r.Schema, "R")
	var sc Scratch
	var want []int32
	generation := func() []int32 {
		sc.Reset()
		p, err := Compile(expr.MustParse("R.I * 2 > 40 AND R.F < 0.5"), bd, b, &sc)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Filter(b.AllLanes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want = generation()
	if len(want) == 0 {
		t.Fatal("predicate selected nothing")
	}
	if got := generation(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("generation on recycled buffers selected %v, want %v", got, want)
	}
	recycled := testing.AllocsPerRun(10, func() { generation() })
	fresh := testing.AllocsPerRun(10, func() {
		sc = Scratch{}
		generation()
	})
	if recycled >= fresh {
		t.Errorf("recycled scratch allocates %.0f per generation, a fresh one %.0f", recycled, fresh)
	}
}

// FuzzDistinct is the differential fuzzer of the distinct kernel: a seeded
// generator expands (seed, size, key mask, selection seed) into a
// relation with NULLs, NaNs and signed zeros, and the kernel must keep
// exactly the rows relation.DistinctProject keeps, in the same order.
func FuzzDistinct(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(1), int64(0))
	f.Add(int64(2), uint8(200), uint8(5), int64(7))
	f.Add(int64(3), uint8(0), uint8(15), int64(1))
	f.Add(int64(4), uint8(90), uint8(10), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, size, mask uint8, selSeed int64) {
		rng := rand.New(rand.NewSource(seed))
		floats := []value.V{negz, posz, nan, nan2, value.NewFloat(0.5), value.NewFloat(2), null}
		strs := []value.V{value.NewString("a"), value.NewString(""), value.NewString("b"), null}
		r := keyRel()
		for i := 0; i < int(size); i++ {
			iv := value.NewInt(int64(rng.Intn(4)))
			if rng.Intn(8) == 0 {
				iv = null
			}
			bv := value.NewBool(rng.Intn(2) == 0)
			if rng.Intn(8) == 0 {
				bv = null
			}
			r.MustAppend(iv, floats[rng.Intn(len(floats))], strs[rng.Intn(len(strs))], bv)
		}
		var cols []string
		for i, name := range r.Schema.Names() {
			if mask&(1<<i) != 0 {
				cols = append(cols, name)
			}
		}
		var sel []int32 // selSeed 0: every lane
		if selSeed != 0 && size > 0 {
			srng := rand.New(rand.NewSource(selSeed))
			sel = []int32{}
			for i := srng.Intn(2 * int(size)); i > 0; i-- {
				sel = append(sel, int32(srng.Intn(int(size))))
			}
		}
		distinctBoth(t, r, cols, sel)
	})
}
