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
			if x != y { // floats by their bits
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
	all := b.AllLanes()
	if sel != nil {
		if all, err = b.Select(sel); err != nil {
			t.Fatal(err)
		}
	}
	ps, idx, err := r.Schema.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := Distinct(b, idx, all)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := boxRows(b, idx, lanes)
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
	if f := z.Rows[0][0].Float(); !math.Signbit(f) {
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
	// The lanes Distinct, Filter and EvalEach were once handed raw are
	// refused where a selection is made of them.
	for _, bad := range [][]int32{{int32(b.Len())}, {-1}} {
		if _, err := b.Select(bad); err == nil {
			t.Errorf("selection %v of a %d-lane batch accepted", bad, b.Len())
		}
	}
	if _, err := Distinct(b, []int{9}, b.AllLanes()); err == nil {
		t.Error("key column out of range accepted")
	}
	if _, err := boxRows(b, []int{-1}, b.AllLanes()); err == nil {
		t.Error("FrameLanes accepted a negative column")
	}
	bd := expr.SingleRelation(b.Schema, "R")
	p, err := Compile(expr.MustParse("CASE WHEN R.I > 0 THEN R.F END > 0"), bd, b, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	// A selection made for a batch of another length is refused by every
	// kernel, before any of its lanes is read.
	shorter, err := FromRelation(keyRel(row(value.NewInt(1), null, null, null)))
	if err != nil {
		t.Fatal(err)
	}
	picked, err := shorter.Select([]int32{0})
	if err != nil {
		t.Fatal(err)
	}
	for name, sel := range map[string]Sel{
		"another batch's lanes":     shorter.AllLanes(),
		"another batch's selection": picked,
		"the zero selection":        {},
	} {
		if _, err := Distinct(b, []int{0}, sel); err == nil {
			t.Errorf("Distinct accepted %s", name)
		}
		if _, err := p.Filter(sel); err == nil {
			t.Errorf("Filter accepted %s", name)
		}
		if err := p.EvalEach(sel, func(*Lanes) error { return nil }); err == nil {
			t.Errorf("EvalEach accepted %s", name)
		}
		if _, err := boxRows(b, []int{0}, sel); err == nil {
			t.Errorf("FrameLanes accepted %s", name)
		}
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
	g1, err := b.Grouping([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := b.Grouping([]int{0, 2})
	g3, _ := b.Grouping([]int{2, 0})
	if g1 != g2 {
		t.Error("grouping rebuilt for the same key columns")
	}
	if g1 == g3 {
		t.Error("different key column orders share a grouping")
	}
	// The CSR lanes: every lane once, in its own group, in scan order, and
	// each group's first lane first.
	for _, g := range []*Grouping{g1, g3} {
		if len(g.offs) != g.Len()+1 || g.offs[0] != 0 || int(g.offs[g.Len()]) != b.Len() {
			t.Fatalf("group offsets %v for %d groups of %d lanes", g.offs, g.Len(), b.Len())
		}
		seen := make(map[int32]bool)
		for id := 0; id < g.Len(); id++ {
			lanes := g.lanes[g.offs[id]:g.offs[id+1]]
			if len(lanes) == 0 || lanes[0] != g.first[id] {
				t.Fatalf("group %d: lanes %v, first lane %d", id, lanes, g.first[id])
			}
			for k, lane := range lanes {
				if seen[lane] || int(g.ids[lane]) != id || (k > 0 && lane <= lanes[k-1]) {
					t.Fatalf("group %d: lanes %v out of scan order, repeated or of another group", id, lanes)
				}
				seen[lane] = true
			}
		}
		if len(seen) != b.Len() {
			t.Fatalf("groups cover %d of %d lanes", len(seen), b.Len())
		}
	}
}

// TestGroupingLookupAllocatesNothing: finding a batch's grouping once it
// is built compares column lists and allocates nothing, as every fused
// request's distinct kernel and every planned θ does.
func TestGroupingLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts hold without the race detector's instrumentation")
	}
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]int{{0, 2}, {2}, {2, 0}}
	for _, cols := range keys {
		if _, err := b.Grouping(cols); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, cols := range keys {
			if _, err := b.Grouping(cols); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("a warm grouping lookup allocates %.1f objects", allocs)
	}
}

// laneKey is the Key() of a lane's values on the key columns.
func laneKey(b *Batch, cols []int, lane int) string {
	var k string
	for _, ci := range cols {
		k += b.Cols[ci].Value(lane).Key() + "\x1f"
	}
	return k
}

// TestGroupingFind: for random detail keys — ints; floats with NaN, ±0
// and integral values; strings; NULLs; two-column keys — the lanes a
// needle finds, mapped back through the grouping's permutation, are
// exactly the lanes whose key has the needle's Key(), in scan order, and a
// group is exactly one Key() class.
func TestGroupingFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	ints := []value.V{i(0), i(5), i(-1), i(1<<53 + 1), null}
	floats := []value.V{f(5), f(0), negz, nan, nan2, f(2.5), f(1 << 53), f(math.Inf(1)), null}
	strs := []value.V{s("a"), s(""), s("b"), null}
	r := keyRel()
	for n := 0; n < 300; n++ {
		r.MustAppend(ints[rng.Intn(len(ints))], floats[rng.Intn(len(floats))], strs[rng.Intn(len(strs))],
			value.NewBool(rng.Intn(2) == 0))
	}
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{0}, {1}, {2}, {3}, {0, 2}, {1, 3}} {
		g, err := b.Grouping(cols)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < g.Len(); id++ {
			for _, lane := range g.lanes[g.offs[id]:g.offs[id+1]] {
				if laneKey(b, cols, int(lane)) != laneKey(b, cols, int(g.first[id])) {
					t.Fatalf("cols %v: lane %d in the group of lane %d under another key", cols, lane, g.first[id])
				}
			}
		}
		// Needles: every lane's own key, plus int needles for the float
		// column (5 finds 5.0) and strings absent from the dictionary.
		var needles []relation.Row
		for lane := 0; lane < b.Len(); lane++ {
			needles = append(needles, r.Rows[lane])
		}
		needles = append(needles,
			relation.Row{null, i(5), s("zz"), i(1)}, relation.Row{null, i(0), s("c"), i(0)},
			relation.Row{null, value.NewBool(true), null, f(1)})
		for _, row := range needles {
			var want []int32
			needle := laneKeyOfRow(row, cols)
			for lane := 0; lane < b.Len(); lane++ {
				if laneKey(b, cols, lane) == needle {
					want = append(want, int32(lane))
				}
			}
			if got := sourceLanes(g, g.Find(row, cols)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("cols %v needle %v: found %v, want %v", cols, row, got, want)
			}
		}
	}
	// An int needle finds integral float lanes; a string outside the
	// dictionary finds nothing.
	g, _ := b.Grouping([]int{1})
	if got := g.Find(relation.Row{null, i(5)}, []int{1}); got.Len() == 0 {
		t.Error("int needle 5 found no 5.0 lane")
	}
	g, _ = b.Grouping([]int{2})
	if got := g.Find(relation.Row{null, null, s("zz")}, []int{2}); got.Len() != 0 {
		t.Errorf("absent string found lanes %v", got.lanes)
	}
}

// TestGroupingFindOnCollision: when two keys share a hash chain — a 64-bit
// collision, forged here by re-indexing both groups under one hash — the
// probe checks each group's first lane and finds only the needle's own
// group, whichever comes first on the chain.
func TestGroupingFindOnCollision(t *testing.T) {
	s := value.NewString
	r := keyRel(row(null, null, s("b"), null), row(null, null, s("a"), null), row(null, null, s("b"), null))
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grouping([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	forged := *g
	forged.index = relation.KeyIndex{}
	h := relation.HashRow(relation.Row{s("b")}, []int{0})
	forged.index.Add(h, 0) // "b", lanes 0 and 2
	forged.index.Add(h, 1) // "a", first on the chain
	if got := sourceLanes(g, forged.Find(relation.Row{s("b")}, []int{0})); fmt.Sprint(got) != "[0 2]" {
		t.Errorf("needle b on a shared chain found lanes %v, want [0 2]", got)
	}
	if got := forged.Find(relation.Row{s("a")}, []int{0}); got.Len() != 0 {
		t.Errorf("needle a, whose hash has no chain, found lanes %v", got.lanes)
	}
}

// sourceLanes maps a run Find returned back through the grouping's
// permutation to the source lanes it stands for; no lanes are nil.
func sourceLanes(g *Grouping, run Sel) []int32 {
	if run.Len() == 0 {
		return nil
	}
	out := make([]int32, run.Len())
	for i, l := range run.lanes {
		out[i] = g.lanes[l]
	}
	return out
}

func laneKeyOfRow(row relation.Row, cols []int) string {
	var k string
	for _, ci := range cols {
		k += row[ci].Key() + "\x1f"
	}
	return k
}

// TestLaneKeysAreKeyEquality: the grouping's lane equality is Key()
// equality, pair by pair, over every corner value of a float column —
// NaN is not equal to a number, and ±0 are one key.
func TestLaneKeysAreKeyEquality(t *testing.T) {
	r := keyRel()
	for _, fv := range []value.V{nan, nan2, negz, posz, value.NewFloat(1.5), value.NewFloat(1), value.NewFloat(1 << 53), null} {
		r.MustAppend(null, fv, null, null)
	}
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grouping([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < b.Len(); x++ {
		for y := 0; y < b.Len(); y++ {
			if got, want := g.laneIs(x, y), laneKey(b, []int{1}, x) == laneKey(b, []int{1}, y); got != want {
				t.Errorf("lanes %v and %v: same key %v, Key() equality %v", r.Rows[x][1], r.Rows[y][1], got, want)
			}
		}
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
	if back.Rows[1][0].Int() == 99 || len(first) != 5 {
		t.Fatal("appending to a row overwrote its neighbour")
	}
	mixed := keyRel(row(value.NewFloat(1), null, null, null)) // Float in the Int column
	if _, err := FromRelation(mixed); err == nil {
		t.Error("mixed-kind column converted")
	}
}

// TestFromRelationRowWidth: a row narrower or wider than the schema is
// refused with an error naming it, instead of panicking on the missing
// value or dropping the extra one.
func TestFromRelationRowWidth(t *testing.T) {
	i := value.NewInt
	for _, c := range []struct {
		name string
		bad  relation.Row
		want string
	}{
		{"short", relation.Row{i(1)}, "relation: row 1 has 1 values, schema (I:INT, F:FLOAT, S:STRING, B:BOOL) has 4 columns"},
		{"long", relation.Row{i(1), null, null, null, i(5)}, "relation: row 1 has 5 values, schema (I:INT, F:FLOAT, S:STRING, B:BOOL) has 4 columns"},
	} {
		r := keyRel(row(i(0), null, null, null))
		r.Rows = append(r.Rows, c.bad, row(i(2), null, null, null))
		if b, err := FromRelation(r); err == nil || err.Error() != c.want {
			t.Errorf("%s row: batch %v, error %v; want %q", c.name, b, err, c.want)
		}
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
		sel, err := p.Filter(b.AllLanes())
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		got := sel.lanes
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
	t.Run("comparison matrix", filterComparisonMatrix)
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
		out, err := p.Filter(b.AllLanes())
		if err != nil {
			t.Fatal(err)
		}
		// The lanes are the scratch's, which the next generation reuses.
		return append([]int32(nil), out.lanes...)
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
		floats := []value.V{negz, posz, nan, nan2, value.NewFloat(0.5), value.NewFloat(2), value.NewFloat(0x1p63), value.NewFloat(-0x1p63), null}
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

// TestFromRelationNil: no relation at all converts to an error, not a
// panic; a caller holding a reply's frame has no boxed relation.
func TestFromRelationNil(t *testing.T) {
	if b, err := FromRelation(nil); err == nil {
		t.Errorf("FromRelation(nil) = %v, want an error", b)
	}
}

// boxRows boxes the selected lanes of cols into rows, in selection order,
// through the lane sources FrameLanes reads them by.
func boxRows(b *Batch, cols []int, sel Sel) ([]relation.Row, error) {
	src, err := FrameLanes(b, cols, sel)
	if err != nil {
		return nil, err
	}
	rows := relation.MakeRows(sel.Len(), len(cols))
	for i := range rows {
		rows[i] = rows[i][:len(cols)]
		for j, l := range src {
			l.Values(rows[i][j:j+1], i, false)
		}
	}
	return rows, nil
}
