package agg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestParseSpec(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"count(*) AS cnt1", "count(*) AS cnt1"},
		{"cnt(*) -> cnt1", "count(*) AS cnt1"},
		{"sum(F.NumBytes) AS sum1", "sum(F.NumBytes) AS sum1"},
		{"AVG(NumBytes) as avg_nb", "avg(NumBytes) AS avg_nb"},
		{"min(x + 1) AS m", "min(x + 1) AS m"},
		{"stddev(v) AS sd", "stddev(v) AS sd"},
		{"countd(ip) AS uniq", "countd(ip) AS uniq"},
		{"count(x) AS nx", "count(x) AS nx"},
	}
	for _, tc := range tests {
		s, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := s.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"count(*)",      // no AS
		"sum(*) AS s",   // * only for count
		"frob(x) AS f",  // unknown function
		"sum(x AS s",    // malformed
		"sum() AS s",    // empty arg for non-count
		"count(*) AS ",  // empty name
		"sum(1 +) AS s", // bad expression
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) should fail", in)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"count(*) AS c", "sum(F.x) AS s", "avg(F.x / 2) AS a",
		"min(x) AS mn", "max(x) AS mx", "var(x) AS v", "countd(x) AS cd",
	}
	for _, in := range specs {
		s := MustParseSpec(in)
		again := MustParseSpec(s.String())
		if again.String() != s.String() {
			t.Errorf("round trip %q -> %q -> %q", in, s, again)
		}
	}
}

// runAgg aggregates vals through sub-aggregate slabs split into nParts
// partitions, merges at the "coordinator", and finalizes — exactly the
// Theorem 1 pipeline.
func runAgg(t *testing.T, spec Spec, vals []value.V, nParts int) value.V {
	t.Helper()
	specs := []Spec{spec}
	super := NewSlab(specs, 1)
	for part := 0; part < nParts; part++ {
		sub := NewSlab(specs, 1)
		for i, v := range vals {
			if i%nParts != part {
				continue
			}
			for p := 0; p < sub.Width(); p++ {
				if err := sub.Add(0, p, v); err != nil {
					t.Fatalf("Add: %v", err)
				}
			}
		}
		for p := 0; p < sub.Width(); p++ {
			if err := super.Merge(0, p, sub.Result(0, p)); err != nil {
				t.Fatalf("Merge: %v", err)
			}
		}
	}
	out, err := super.Finalize(0, 0)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return out
}

func ints(vs ...int64) []value.V {
	out := make([]value.V, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestAggregatePipeline(t *testing.T) {
	vals := ints(1, 2, 3, 4, 5, 6)
	tests := []struct {
		spec string
		want value.V
	}{
		{"count(*) AS c", value.NewInt(6)},
		{"count(x) AS c", value.NewInt(6)},
		{"sum(x) AS s", value.NewInt(21)},
		{"avg(x) AS a", value.NewFloat(3.5)},
		{"min(x) AS m", value.NewInt(1)},
		{"max(x) AS m", value.NewInt(6)},
	}
	for _, tc := range tests {
		for _, parts := range []int{1, 2, 3, 6} {
			got := runAgg(t, MustParseSpec(tc.spec), vals, parts)
			if !value.Equal(got, tc.want) {
				t.Errorf("%s over %d parts = %v, want %v", tc.spec, parts, got, tc.want)
			}
		}
	}
}

func TestAggregateNulls(t *testing.T) {
	vals := []value.V{value.NewInt(10), value.Null, value.NewInt(20), value.Null}
	if got := runAgg(t, MustParseSpec("count(*) AS c"), vals, 2); got.Int() != 4 {
		t.Errorf("count(*) = %v, want 4", got)
	}
	if got := runAgg(t, MustParseSpec("count(x) AS c"), vals, 2); got.Int() != 2 {
		t.Errorf("count(x) = %v, want 2", got)
	}
	if got := runAgg(t, MustParseSpec("avg(x) AS a"), vals, 2); got.Float() != 15 {
		t.Errorf("avg = %v, want 15", got)
	}
}

func TestAggregateEmpty(t *testing.T) {
	var vals []value.V
	if got := runAgg(t, MustParseSpec("count(*) AS c"), vals, 2); got.Int() != 0 || got.K != value.KindInt {
		t.Errorf("count over empty = %v, want 0", got)
	}
	for _, spec := range []string{"sum(x) AS s", "avg(x) AS a", "min(x) AS m", "max(x) AS m", "var(x) AS v"} {
		if got := runAgg(t, MustParseSpec(spec), vals, 2); !got.IsNull() {
			t.Errorf("%s over empty = %v, want NULL", spec, got)
		}
	}
	if got := runAgg(t, MustParseSpec("countd(x) AS c"), vals, 2); got.Int() != 0 {
		t.Errorf("countd over empty = %v, want 0", got)
	}
}

func TestVarAndStddev(t *testing.T) {
	vals := ints(2, 4, 4, 4, 5, 5, 7, 9) // classic example: var=4, sd=2
	v := runAgg(t, MustParseSpec("var(x) AS v"), vals, 3)
	if math.Abs(v.Float()-4) > 1e-9 {
		t.Errorf("var = %v, want 4", v)
	}
	sd := runAgg(t, MustParseSpec("stddev(x) AS s"), vals, 3)
	if math.Abs(sd.Float()-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", sd)
	}
}

func TestMinMaxStrings(t *testing.T) {
	vals := []value.V{value.NewString("pear"), value.NewString("apple"), value.NewString("fig")}
	if got := runAgg(t, MustParseSpec("min(x) AS m"), vals, 2); got.S != "apple" {
		t.Errorf("min = %v", got)
	}
	if got := runAgg(t, MustParseSpec("max(x) AS m"), vals, 2); got.S != "pear" {
		t.Errorf("max = %v", got)
	}
}

func TestSumMixedIntFloat(t *testing.T) {
	vals := []value.V{value.NewInt(1), value.NewFloat(2.5)}
	got := runAgg(t, MustParseSpec("sum(x) AS s"), vals, 1)
	if got.K != value.KindFloat || got.Float() != 3.5 {
		t.Errorf("sum mixed = %v", got)
	}
	// Float partial merged into int partial promotes.
	got = runAgg(t, MustParseSpec("sum(x) AS s"), vals, 2)
	f, err := got.AsFloat()
	if err != nil || f != 3.5 {
		t.Errorf("sum mixed split = %v", got)
	}
}

// TestMergePartitionInvariance: the merged result must not depend on how
// the input is partitioned — the heart of Theorem 1.
func TestMergePartitionInvariance(t *testing.T) {
	f := func(raw []int16, parts uint8) bool {
		vals := make([]value.V, len(raw))
		for i, r := range raw {
			vals[i] = value.NewInt(int64(r))
		}
		n := int(parts%7) + 1
		for _, spec := range []string{"count(*) AS c", "sum(x) AS s", "min(x) AS m", "max(x) AS m"} {
			a := runAgg(t, MustParseSpec(spec), vals, 1)
			b := runAgg(t, MustParseSpec(spec), vals, n)
			if !value.Equal(a, b) && !(a.IsNull() && b.IsNull()) {
				return false
			}
		}
		// avg compares approximately (float association).
		a := runAgg(t, MustParseSpec("avg(x) AS a"), vals, 1)
		b := runAgg(t, MustParseSpec("avg(x) AS a"), vals, n)
		if a.IsNull() != b.IsNull() {
			return false
		}
		if !a.IsNull() {
			af, _ := a.AsFloat()
			bf, _ := b.AsFloat()
			if math.Abs(af-bf) > 1e-9*(1+math.Abs(af)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHLLAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{10, 1000, 50000} {
		vals := make([]value.V, 0, n*2)
		for i := 0; i < n; i++ {
			v := value.NewInt(int64(i))
			vals = append(vals, v, v) // duplicates must not inflate
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		got := runAgg(t, MustParseSpec("countd(x) AS c"), vals, 4)
		err := math.Abs(float64(got.Int())-float64(n)) / float64(n)
		if err > 0.15 {
			t.Errorf("countd(%d distinct) = %d (%.1f%% error)", n, got.Int(), err*100)
		}
	}
}

func TestHLLMergeCommutes(t *testing.T) {
	a, b := newHLL(), newHLL()
	for i := 0; i < 100; i++ {
		a.Add(value.NewInt(int64(i)))
		b.Add(value.NewInt(int64(i + 50)))
	}
	m1 := newHLL()
	m1.Merge(a)
	m1.Merge(b)
	m2 := newHLL()
	m2.Merge(b)
	m2.Merge(a)
	if m1.Estimate() != m2.Estimate() {
		t.Error("HLL merge not commutative")
	}
}

func TestDecodeHLLErrors(t *testing.T) {
	if _, err := decodeHLL(value.NewString("short")); err == nil {
		t.Error("short HLL state accepted")
	}
	if _, err := decodeHLL(value.NewInt(3)); err == nil {
		t.Error("non-string HLL state accepted")
	}
}

func TestFinalizeArityError(t *testing.T) {
	s := MustParseSpec("avg(x) AS a")
	if _, err := s.Finalize([]value.V{value.NewInt(1)}); err == nil {
		t.Error("short primitive vector accepted")
	}
}

func TestSubColumns(t *testing.T) {
	s := MustParseSpec("avg(x) AS a1")
	cols := s.SubColumns()
	if len(cols) != 2 || cols[0].Name != "a1__p0" || cols[1].Name != "a1__p1" {
		t.Errorf("SubColumns = %v", cols)
	}
	if cols[1].Kind != value.KindInt {
		t.Errorf("count prim kind = %v", cols[1].Kind)
	}
	if c := MustParseSpec("count(*) AS c").OutColumn(); c.Kind != value.KindInt {
		t.Errorf("count out kind = %v", c.Kind)
	}
}

func TestMergeTypeErrors(t *testing.T) {
	slab := func(spec string) *Slab { return NewSlab([]Spec{MustParseSpec(spec)}, 1) }
	if err := slab("count(x) AS c").Merge(0, 0, value.NewString("x")); err == nil {
		t.Error("count merge of string accepted")
	}
	if err := slab("sum(x) AS s").Add(0, 0, value.NewString("x")); err == nil {
		t.Error("sum of string accepted")
	}
	s := slab("min(x) AS m")
	if err := s.Add(0, 0, value.NewString("x")); err != nil {
		t.Errorf("first min value rejected: %v", err)
	}
	if err := s.Add(0, 0, value.NewInt(1)); err == nil {
		t.Error("mixed-type min accepted")
	}
}

func TestExactCountDistinct(t *testing.T) {
	// Duplicates across partitions collapse exactly.
	vals := []value.V{
		value.NewInt(1), value.NewInt(2), value.NewInt(1),
		value.NewString("a"), value.NewString("a"), value.NewInt(2),
		value.NewFloat(2), // == int 2 by value identity
		value.Null,        // ignored
	}
	for _, parts := range []int{1, 2, 3} {
		got := runAgg(t, MustParseSpec("countdx(x) AS u"), vals, parts)
		if got.Int() != 3 {
			t.Errorf("countdx over %d parts = %v, want 3", parts, got)
		}
	}
	// Empty input.
	if got := runAgg(t, MustParseSpec("countdx(x) AS u"), nil, 2); got.Int() != 0 {
		t.Errorf("countdx empty = %v", got)
	}
	// Aliases parse.
	if MustParseSpec("exact_count_distinct(x) AS u").Func != CountDX {
		t.Error("alias not recognized")
	}
}

// TestExactCountDistinctPast2To63: the floats ±2^63 are two values, and
// 2^63 is no int64: float64(math.MaxInt64) rounds up to it, so a bound
// written as f <= math.MaxInt64 converted 2^63 to MinInt64 and counted the
// pair once.
func TestExactCountDistinctPast2To63(t *testing.T) {
	vals := []value.V{value.NewFloat(0x1p63), value.NewFloat(-0x1p63)}
	for _, parts := range []int{1, 2} {
		if got := runAgg(t, MustParseSpec("countdx(x) AS u"), vals, parts); got.Int() != 2 {
			t.Errorf("countdx of ±2^63 over %d parts = %v, want 2", parts, got)
		}
	}
}

func TestExactDistinctSetEncoding(t *testing.T) {
	set := map[string]struct{}{"": {}, "a\x1fb": {}, "long-value-with-bytes\x00": {}}
	v := encodeSet(set)
	back, err := decodeSet(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(set) {
		t.Fatalf("decoded %d values, want %d", len(back), len(set))
	}
	for k := range set {
		if _, ok := back[k]; !ok {
			t.Errorf("value %q lost", k)
		}
	}
	// Corrupt states are rejected, not mis-decoded.
	if _, err := decodeSet(value.NewString("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")); err == nil {
		t.Error("corrupt set state accepted")
	}
	if _, err := decodeSet(value.NewInt(1)); err == nil {
		t.Error("non-string set state accepted")
	}
}

func TestExactDistinctCap(t *testing.T) {
	s := NewSlab([]Spec{MustParseSpec("countdx(x) AS u")}, 1)
	var err error
	for i := 0; i <= maxExactDistinct; i++ {
		if err = s.Add(0, 0, value.NewInt(int64(i))); err != nil {
			break
		}
	}
	if err == nil {
		t.Error("exact distinct cap not enforced")
	}
}

// TestSlabLayout: primitives are addressed in spec then Prims() order,
// AddGroup appends an empty group without disturbing the others, and every
// lane's zero value is the empty state: a count of 0, NULL for sums and
// extrema, and no sketch until the first value arrives.
func TestSlabLayout(t *testing.T) {
	specs := []Spec{
		MustParseSpec("avg(x) AS a"),   // PSum, PCount
		MustParseSpec("count(*) AS n"), // PCount (star)
		MustParseSpec("countd(x) AS d"),
		MustParseSpec("min(x) AS lo"),
	}
	s := NewSlab(specs, 2)
	if got := s.Width(); got != 5 {
		t.Fatalf("width %d, want 5", got)
	}
	for si, want := range [][2]int{{0, 2}, {2, 3}, {3, 4}, {4, 5}} {
		if lo, hi := s.SpecPrims(si); lo != want[0] || hi != want[1] {
			t.Fatalf("spec %d has primitives [%d, %d), want %v", si, lo, hi, want)
		}
	}
	for g := 0; g < 2; g++ {
		for p := 0; p < s.Width(); p++ {
			if err := s.Add(g, p, value.NewInt(int64(10*g+p))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g := s.AddGroup(); g != 2 {
		t.Fatalf("AddGroup returned %d, want 2", g)
	}
	if hlls := s.lanes[3].hlls; hlls[0] == nil || hlls[1] == nil || hlls[2] != nil {
		t.Errorf("sketches allocated: %v, want the two fed groups only", []bool{hlls[0] != nil, hlls[1] != nil, hlls[2] != nil})
	}
	want := [][]value.V{
		{value.NewInt(0), value.NewInt(1), value.NewInt(1), value.Null /* sketch */, value.NewInt(4)},
		{value.NewInt(10), value.NewInt(1), value.NewInt(1), value.Null, value.NewInt(14)},
		{value.Null, value.NewInt(0), value.NewInt(0), value.Null, value.Null},
	}
	for g, row := range want {
		for p, w := range row {
			got := s.Result(g, p)
			if p == 3 && g < 2 {
				if got.K != value.KindString {
					t.Errorf("group %d sketch state is %v, want an encoded sketch", g, got)
				}
				continue
			}
			if got != w {
				t.Errorf("group %d primitive %d = %v, want %v", g, p, got, w)
			}
		}
	}
	if v, err := s.Finalize(2, 0); err != nil || !v.IsNull() {
		t.Errorf("avg of an empty group = %v, %v; want NULL", v, err)
	}
}

// TestSlabSumSwitch: a sum stays an exact integer while every value is an
// integer or a boolean, and becomes the float total at the first other
// value, folded or merged, for good; a sum of squares is always a float.
func TestSlabSumSwitch(t *testing.T) {
	s := NewSlab([]Spec{MustParseSpec("sum(x) AS s"), MustParseSpec("var(x) AS v")}, 1)
	steps := []struct {
		add, merge value.V
		want       value.V
	}{
		{add: value.NewInt(2), want: value.NewInt(2)},
		{add: value.NewBool(true), want: value.NewInt(3)},
		{merge: value.NewInt(4), want: value.NewInt(7)},
		{add: value.NewFloat(0.5), want: value.NewFloat(7.5)},
		{add: value.NewInt(1), want: value.NewFloat(8.5)},
		{merge: value.NewInt(1), want: value.NewFloat(9.5)},
	}
	for i, st := range steps {
		var err error
		if st.merge.IsNull() {
			err = s.Add(0, 0, st.add)
		} else {
			err = s.Merge(0, 0, st.merge)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Result(0, 0); got != st.want {
			t.Fatalf("step %d: sum = %#v, want %#v", i, got, st.want)
		}
	}
	if err := s.AddInts(0, 3, value.KindInt, []int64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Result(0, 3); got != value.NewFloat(9) {
		t.Errorf("sum of squares = %#v, want float 9", got)
	}
}

// TestSlabSumOverflow: an integer sum whose total does not fit int64
// fails with errSumOverflow where it is finalized, whichever path added
// to it: per value (Add), folded over a lane (AddInts) or merging shipped
// states (Merge), in either direction. A float sum does not overflow: it
// reaches ±Inf.
func TestSlabSumOverflow(t *testing.T) {
	for _, c := range []struct {
		name  string
		first int64
		add   func(s *Slab, v int64) error
	}{
		{"Add", math.MaxInt64, func(s *Slab, v int64) error { return s.Add(0, 0, value.NewInt(v)) }},
		{"AddInts", math.MaxInt64, func(s *Slab, v int64) error { return s.AddInts(0, 0, value.KindInt, []int64{v}, nil) }},
		{"Merge", math.MaxInt64, func(s *Slab, v int64) error { return s.Merge(0, 0, value.NewInt(v)) }},
		{"Merge below", math.MinInt64, func(s *Slab, v int64) error { return s.Merge(0, 0, value.NewInt(v)) }},
	} {
		s := NewSlab([]Spec{MustParseSpec("sum(x) AS s")}, 1)
		for range 2 {
			if err := c.add(s, c.first); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got, err := s.Finalize(0, 0)
		if !errors.Is(err, errSumOverflow) || err.Error() != "agg: integer sum overflows int64" {
			t.Errorf("%s: %d + %d = %#v, %v; want errSumOverflow", c.name, c.first, c.first, got, err)
		}
	}
}

// TestSlabSumOverflowOrderFree: whether an integer sum fits depends on its
// values alone. MaxInt64, 1 and −1 (and MaxInt64, 1 and MinInt64) sum to
// MaxInt64 (to 0) in every order, folded per value or over a lane, and
// however they are split across sites whose states merge in site order,
// although a site's own total or a running total passes MaxInt64.
func TestSlabSumOverflowOrderFree(t *testing.T) {
	specs := []Spec{MustParseSpec("sum(x) AS s")}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, vals := range [][3]int64{{math.MaxInt64, 1, -1}, {math.MaxInt64, 1, math.MinInt64}} {
		want := vals[0] + vals[1] + vals[2]
		for _, perm := range perms {
			for split := 0; split < 27; split++ { // value i goes to site split/3^i % 3
				for _, lanes := range []bool{false, true} {
					sites := NewSlab(specs, 3)
					for i, k := 0, split; i < 3; i, k = i+1, k/3 {
						v := vals[perm[i]]
						var err error
						if lanes {
							err = sites.AddInts(k%3, 0, value.KindInt, []int64{v}, nil)
						} else {
							err = sites.Add(k%3, 0, value.NewInt(v))
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					root := NewSlab(specs, 1)
					for site := range 3 {
						if err := root.Merge(0, 0, sites.Result(site, 0)); err != nil {
							t.Fatal(err)
						}
					}
					if got, err := root.Finalize(0, 0); err != nil || got != value.NewInt(want) {
						t.Errorf("%v in order %v split %d (lanes %v) = %#v, %v; want %d", vals, perm, split, lanes, got, err, want)
					}
				}
			}
		}
	}
}

// TestSlabBytesPerGroup: the Fig. 5 MD's states (count(*) and avg: a count,
// a sum and a count per group) are pointer-free lanes of about 33 bytes a
// group, not three 56-byte tagged states.
func TestSlabBytesPerGroup(t *testing.T) {
	specs := []Spec{MustParseSpec("count(*) AS cnt1"), MustParseSpec("avg(F.Quantity) AS avg1")}
	const groups = 2000
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slabSink = NewSlab(specs, groups)
		}
	})
	t.Logf("NewSlab of %d groups: %d B in %d allocations", groups, res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > groups*40 {
		t.Errorf("NewSlab of %d groups allocates %d B, more than 40 B a group", groups, got)
	}
	for p, l := range slabSink.lanes {
		if l.vals != nil || l.hlls != nil || l.sets != nil {
			t.Errorf("primitive %d of count and sum specs holds a pointer lane", p)
		}
	}
}

var slabSink *Slab

// TestSlabNoPrimitives: a spec list without primitives still counts its
// groups (an operator may have a θ and no aggregates).
func TestSlabNoPrimitives(t *testing.T) {
	for _, specs := range [][]Spec{nil, {}} {
		s := NewSlab(specs, 2)
		for want := 2; want < 5; want++ {
			if g := s.AddGroup(); g != want {
				t.Fatalf("AddGroup returned %d, want %d", g, want)
			}
		}
		if got := s.Width(); got != 0 {
			t.Fatalf("width %d, want 0", got)
		}
	}
}

// TestSlabReserve: an empty slab reserved for n groups adds them without
// allocating, and every one starts empty, as in a slab grown one group at
// a time.
func TestSlabReserve(t *testing.T) {
	var specs []Spec
	for _, s := range []string{"count(*) AS c", "avg(x) AS a", "min(x) AS lo", "stddev(x) AS sd",
		"exact_count_distinct(x) AS d", "approx_count_distinct(x) AS h"} {
		specs = append(specs, MustParseSpec(s))
	}
	const n = 64
	grown, reserved := NewSlab(specs, 0), NewSlab(specs, 0)
	reserved.Reserve(n)
	if allocs := testing.AllocsPerRun(1, func() {
		for reserved.groups < n {
			reserved.AddGroup()
		}
	}); allocs != 0 {
		t.Fatalf("AddGroup up to the reservation allocated %.0f times", allocs)
	}
	for grown.groups < n {
		grown.AddGroup()
	}
	for g := 0; g < n; g++ {
		for p := 0; p < grown.Width(); p++ {
			if want, got := grown.Result(g, p), reserved.Result(g, p); !value.Equal(want, got) || want.K != got.K {
				t.Fatalf("group %d, primitive %d: %v after Reserve, %v grown", g, p, got, want)
			}
		}
	}
}
