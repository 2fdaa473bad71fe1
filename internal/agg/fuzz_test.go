package agg

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// FuzzParseSpec asserts the aggregate-spec parser never panics, that the
// wire form is a fixpoint, and that the wire form carries any argument the
// expression parser accepts: for every expression e, the spec over e parses
// back to e. A string holding "->" or " AS " is an argument like any other.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"count(*) AS cnt1",
		"cnt(*) -> cnt1",
		"avg(F.NumBytes) AS avg_nb",
		"sum(x * (1 - y)) AS revenue",
		"countd(ip) AS uniq",
		"stddev(v) AS sd",
		"'->'",
		"CASE WHEN F.Sales > 0 THEN ' AS ' ELSE F.Product END",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if e, err := expr.Parse(input); err == nil {
			wire := Spec{Func: Max, Arg: e, As: "m"}.String()
			spec, err := ParseSpec(wire)
			if err != nil {
				t.Fatalf("spec over %q does not parse: %q: %v", input, wire, err)
			}
			if got := spec.Arg.String(); got != e.String() {
				t.Fatalf("spec over %q: %q parses to argument %q", e, wire, got)
			}
		}
		spec, err := ParseSpec(input)
		if err != nil {
			return
		}
		s1 := spec.String()
		again, err := ParseSpec(s1)
		if err != nil {
			t.Fatalf("wire form does not re-parse: %q -> %q: %v", input, s1, err)
		}
		if s2 := again.String(); s2 != s1 {
			t.Fatalf("wire form not a fixpoint: %q -> %q -> %q", input, s1, s2)
		}
	})
}

// FuzzSlabFold decodes two typed detail batches — ints, bools, floats or
// strings, with NULLs, NaN, ±0, ±Inf and the int64 limits — and checks the
// lane folds against per-value Add: folding both batches into one slot
// must give every primitive a state byte-equal to adding their values one
// at a time, errors included. The batches may differ in kind (a float
// batch after an int one, a string one before an int one), which sends an
// extremum from its typed fold to the per-value path. For the exact
// primitives (counts, integer sums, NaN-free extrema, sketches, sets),
// folding the batches into separate groups and merging their states must
// equal one fold as well.
func FuzzSlabFold(f *testing.F) {
	f.Add([]byte{0, 1, 2, 7, 200, 14, 9}, uint8(3))
	f.Add([]byte{1, 1, 0, 0, 7, 1}, uint8(1))
	f.Add([]byte{2, 3, 250, 7, 33, 128}, uint8(2))
	f.Add([]byte{3, 5, 7, 18, 30, 0}, uint8(4))
	f.Add([]byte{2, 20, 125, 12, 129, 127, 128, 125}, uint8(2))
	f.Add([]byte{10, 9, 125, 3, 8, 127, 128, 1}, uint8(3)) // floats, then ints
	f.Add([]byte{8, 127, 1, 128, 125, 2, 5}, uint8(3))     // ints, then floats
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6}, uint8(2))           // strings, then ints
	f.Add([]byte{10, 9, 1}, uint8(1))                      // 2.25, then int 1
	f.Add([]byte{4, 1, 1}, uint8(1))                       // int 1, then bool 1: a tie keeps the int
	f.Add([]byte{2, 129, 130}, uint8(1))                   // -0, then 0: a tie keeps -0
	specs := []Spec{
		MustParseSpec("count(*) AS n"), MustParseSpec("count(x) AS c"),
		MustParseSpec("sum(x) AS s"), MustParseSpec("var(x) AS v"),
		MustParseSpec("min(x) AS lo"), MustParseSpec("max(x) AS hi"),
		MustParseSpec("countd(x) AS d"), MustParseSpec("countdx(x) AS dx"),
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		if len(data) == 0 || len(data) > 512 {
			return // a batch of detail lanes, not a stress test
		}
		// kind is the first batch's, kinds[1] the second's.
		kinds := [2]byte{data[0] % 4, (data[0] + data[0]>>2) % 4}
		data = data[1:]
		n := len(data)
		k := int(split) % (n + 1)
		ints, floats, strs := make([]int64, n), make([]float64, n), make([]string, n)
		nulls := make([]bool, n)
		vals := make([]value.V, n)
		hasNaN := false
		for i, b := range data {
			nulls[i] = b%7 == 0
			ints[i], floats[i], strs[i] = int64(int8(b)), float64(int8(b))/4, fmt.Sprint(b%13)
			switch b {
			case 125:
				floats[i] = math.NaN()
			case 127:
				ints[i], floats[i] = math.MaxInt64, math.Inf(1)
			case 128:
				ints[i], floats[i] = math.MinInt64, math.Inf(-1)
			case 129:
				floats[i] = math.Copysign(0, -1)
			case 130:
				floats[i] = 0
			}
			kind := kinds[0]
			if i >= k {
				kind = kinds[1]
			}
			switch {
			case nulls[i]:
			case kind == 0:
				vals[i] = value.NewInt(ints[i])
			case kind == 1:
				ints[i] = int64(b & 1)
				vals[i] = value.NewBool(b&1 == 1)
			case kind == 2:
				vals[i] = value.NewFloat(floats[i])
				hasNaN = hasNaN || floats[i] != floats[i]
			default:
				vals[i] = value.NewString(strs[i])
			}
		}
		// fold folds batch b, lanes [0, k) or [k, n), into slot g.
		fold := func(s *Slab, g, p, b int) error {
			lo, hi := 0, k
			if b == 1 {
				lo, hi = k, n
			}
			switch kinds[b] {
			case 0:
				return s.AddInts(g, p, value.KindInt, ints[lo:hi], nulls[lo:hi])
			case 1:
				return s.AddInts(g, p, value.KindBool, ints[lo:hi], nulls[lo:hi])
			case 2:
				return s.AddFloats(g, p, floats[lo:hi], nulls[lo:hi])
			}
			for i := lo; i < hi; i++ { // string lanes fold per value
				if err := s.Add(g, p, vals[i]); err != nil {
					return err
				}
			}
			return nil
		}
		lanes, boxed, halves := NewSlab(specs, 1), NewSlab(specs, 1), NewSlab(specs, 2)
		for p := 0; p < lanes.Width(); p++ {
			errLanes := fold(lanes, 0, p, 0)
			if errLanes == nil {
				errLanes = fold(lanes, 0, p, 1)
			}
			var errBoxed error
			for _, v := range vals {
				if errBoxed = boxed.Add(0, p, v); errBoxed != nil {
					break
				}
			}
			if (errLanes == nil) != (errBoxed == nil) {
				t.Fatalf("primitive %d: lane fold error %v, per-value error %v", p, errLanes, errBoxed)
			}
			if errLanes != nil {
				continue
			}
			got, want := lanes.Result(0, p), boxed.Result(0, p)
			if !sameState(got, want) {
				t.Fatalf("primitive %d: lane fold %#v, per-value %#v", p, got, want)
			}
			switch prim := lanes.lanes[p].prim; {
			case prim == PSumSq, prim == PSum && (kinds[0] == 2 || kinds[1] == 2):
				continue // float totals depend on the order of additions
			case (prim == PMin || prim == PMax) && hasNaN:
				continue // NaN compares equal to everything: extrema do not associate
			}
			if fold(halves, 0, p, 0) != nil || fold(halves, 1, p, 1) != nil {
				t.Fatalf("primitive %d: a half fails where the whole folds", p)
			}
			merged := NewSlab(specs, 1)
			for g := 0; g < 2; g++ {
				if err := merged.Merge(0, p, halves.Result(g, p)); err != nil {
					t.Fatalf("primitive %d: merge: %v", p, err)
				}
			}
			if got := merged.Result(0, p); !sameState(got, want) {
				t.Fatalf("primitive %d: split and merged %#v, one fold %#v", p, got, want)
			}
		}
	})
}

// TestExtremumFoldNaN pins the rule that makes extrema non-associative: a
// lane replaces the state only on a strictly smaller value, so a NaN after
// 5 is skipped and the 3 behind it still wins. Taking the lane's own
// minimum first (NaN) and merging it would keep 5.
func TestExtremumFoldNaN(t *testing.T) {
	s := NewSlab([]Spec{MustParseSpec("min(x) AS lo")}, 1)
	if err := s.AddFloats(0, 0, []float64{5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFloats(0, 0, []float64{math.NaN(), 3}, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Result(0, 0); !sameState(got, value.NewFloat(3)) {
		t.Fatalf("min(5; NaN, 3) = %#v, want 3", got)
	}
}

// sameState compares states bit for bit, float bit patterns included.
func sameState(a, b value.V) bool {
	return a == b // one payload word: floats compare by their bits
}

// FuzzSlabFrame folds values of every kind — NULLs, ints, bools, floats
// with NaN and −0, strings — into the groups of a slab of every primitive,
// and frames its lanes (Slab.Lane) over the groups a bitmap keeps: the
// frame must be, byte for byte, AppendFrame of the same states boxed into
// rows (Result), and must read as its bytes decode. A group may see no
// value (NULL states), one kind, or several (a generic extremum lane).
func FuzzSlabFrame(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6}, uint8(9))
	f.Add([]byte{0, 11, 0, 12, 2, 13, 2, 14, 0xff}, uint8(3+0x80))
	f.Add([]byte{1, 33, 1, 34, 3, 35, 4, 36, 5, 37}, uint8(7))
	f.Add([]byte{}, uint8(0))
	specs := []Spec{
		MustParseSpec("count(*) AS n"), MustParseSpec("count(x) AS c"),
		MustParseSpec("sum(x) AS s"), MustParseSpec("var(x) AS v"),
		MustParseSpec("min(x) AS lo"), MustParseSpec("max(x) AS hi"),
		MustParseSpec("countd(x) AS d"), MustParseSpec("countdx(x) AS dx"),
	}
	var cols []relation.Column
	for _, sp := range specs {
		cols = append(cols, sp.SubColumns()...)
	}
	schema := relation.MustSchema(cols...)
	f.Fuzz(func(t *testing.T, data []byte, groups uint8) {
		if len(data) > 512 {
			return
		}
		n := int(groups % 0x40)
		slab := NewSlab(specs, n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b := data[i+1]
			var v value.V
			switch b % 5 {
			case 1:
				v = value.NewInt(int64(int8(b)))
			case 2:
				v = value.NewBool(b&8 != 0)
			case 3:
				v = value.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, float64(int8(b)) / 4}[b/5%4])
			case 4:
				v = value.NewString(fmt.Sprint(b % 13))
			}
			for p := 0; p < slab.Width(); p++ {
				_ = slab.Add(int(data[i])%n, p, v) // a refused value leaves the state as it was
			}
		}
		var kept []byte // every group when groups' top bit is clear
		if groups&0x80 != 0 {
			kept = make([]byte, (n+7)/8)
			for g := 0; g < n; g++ {
				if len(data) > 0 && data[g%len(data)]&0x10 != 0 {
					kept[g/8] |= 1 << (g % 8)
				}
			}
		}
		lanes := make([]relation.LaneSource, slab.Width())
		boxed := relation.New(schema)
		for p := range lanes {
			lanes[p] = slab.Lane(p)
		}
		for g := 0; g < n; g++ {
			if kept != nil && kept[g/8]&(1<<(g%8)) == 0 {
				continue
			}
			row := make(relation.Row, slab.Width())
			for p := range row {
				row[p] = slab.Result(g, p)
			}
			boxed.Rows = append(boxed.Rows, row)
		}
		got := relation.EncodeFrame(schema, n, kept, lanes)
		if want := relation.AppendFrame(nil, boxed); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("framed from the lanes\n% x\nboxed\n% x", got.Bytes(), want)
		}
		dec, err := relation.DecodeFrame(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Relation(), dec.Relation()) || (boxed.Len() > 0 && !reflect.DeepEqual(got.Relation().Rows, boxed.Rows)) {
			t.Fatalf("the frame reads\n%v\nits bytes decode to\n%v\nboxed\n%v", got.Relation(), dec.Relation(), boxed)
		}
	})
}

// FuzzSlabFrameMerge frames a slab's lanes over the groups a bitmap keeps,
// as a site frames its reply, decodes the frame as a coordinator does, and
// folds it into two fresh slabs: by MergeLane, which folds an INT or FLOAT
// lane in one pass, and value by value (Merge). It folds each column into
// another primitive, as a reply of a foreign shape would reach it, and then
// twice into its own. The slabs must hold
// the same states bit for bit, and a lane refused one way must be refused
// the other with the same error. Groups hold INT, FLOAT or mixed sums,
// sums near the int64 limits that wrap at the site (a wide state) or only
// as the coordinator merges them, or nothing; the bitmap keeps every group,
// the groups data picks, or exactly the groups a sum saw a value in, whose
// unkept groups are then its only NULLs. Row j folds into group j%m for m
// up to the rows, so states of several rows meet in one group, in order.
func FuzzSlabFrameMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6}, uint8(9), uint8(0x53))
	f.Add([]byte{0, 2, 0, 8, 1, 14, 1, 7, 2, 19}, uint8(3+0x80), uint8(0x51)) // wide, wrapping and small ints
	f.Add([]byte{0, 3, 1, 9, 2, 15, 3, 21}, uint8(5+0x40), uint8(0x92))       // floats, kept where seen
	f.Add([]byte{0, 1, 0, 3, 1, 2, 2, 5, 3, 4}, uint8(7+0xc0), uint8(0x14))   // mixed kinds, kept explicitly
	f.Add([]byte{}, uint8(0), uint8(0))
	specs := []Spec{
		MustParseSpec("count(*) AS n"), MustParseSpec("count(x) AS c"),
		MustParseSpec("sum(x) AS s"), MustParseSpec("var(x) AS v"),
		MustParseSpec("min(x) AS lo"), MustParseSpec("max(x) AS hi"),
		MustParseSpec("countd(x) AS d"), MustParseSpec("countdx(x) AS dx"),
	}
	var cols []relation.Column
	for _, sp := range specs {
		cols = append(cols, sp.SubColumns()...)
	}
	schema := relation.MustSchema(cols...)
	big := []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 / 2, math.MinInt64 / 2}
	f.Fuzz(func(t *testing.T, data []byte, groups, spread uint8) {
		if len(data) > 512 {
			return
		}
		n := int(groups % 0x40)
		site := NewSlab(specs, n)
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			b := data[i+1]
			var v value.V
			switch b % 6 {
			case 1:
				v = value.NewInt(int64(int8(b)))
			case 2:
				v = value.NewInt(big[b/6%4])
			case 3:
				v = value.NewFloat([]float64{math.NaN(), math.Copysign(0, -1), 0, float64(int8(b)) / 4}[b/6%4])
			case 4:
				v = value.NewBool(b&8 != 0)
			case 5:
				v = value.NewString(fmt.Sprint(b % 13))
			}
			for p := 0; p < site.Width(); p++ {
				_ = site.Add(int(data[i])%n, p, v) // a refused value leaves the state as it was
			}
		}
		var kept []byte
		if groups>>6 != 0 {
			sum, _ := site.SpecPrims(2)
			kept = make([]byte, (n+7)/8)
			for g := 0; g < n; g++ {
				keep := groups>>6 == 3
				switch groups >> 6 {
				case 1:
					keep = len(data) > 0 && data[g%len(data)]&0x10 != 0
				case 2:
					keep = !site.Result(g, sum).IsNull()
				}
				if keep {
					kept[g/8] |= 1 << (g % 8)
				}
			}
		}
		lanes := make([]relation.LaneSource, site.Width())
		boxed := relation.New(schema)
		for p := range lanes {
			lanes[p] = site.Lane(p)
		}
		for g := 0; g < n; g++ {
			if kept == nil || kept[g/8]&(1<<(g%8)) != 0 {
				row := make(relation.Row, site.Width())
				for p := range row {
					row[p] = site.Result(g, p)
				}
				boxed.Rows = append(boxed.Rows, row)
			}
		}
		framed := relation.EncodeFrame(schema, n, kept, lanes)
		if want := relation.AppendFrame(nil, boxed); !bytes.Equal(framed.Bytes(), want) {
			t.Fatalf("framed from the lanes\n% x\nboxed\n% x", framed.Bytes(), want)
		}
		h, err := relation.DecodeFrame(framed.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		m := 1 + int(spread)%max(1, h.Len())
		at := make([]int, h.Len())
		for j := range at {
			at[j] = j % m
		}
		lane, each := NewSlab(specs, m), NewSlab(specs, m)
		var sc LaneScratch
		// The first round merges each column into the primitive spread>>4
		// further on, into empty states.
		for round := 0; round < 3; round++ {
			for p := 0; p < lane.Width(); p++ {
				c := p
				if round == 0 {
					c = (p + int(spread>>4)) % lane.Width()
				}
				got := lane.MergeLane(p, at, h, c, &sc)
				want := h.Lane(c, func(j int, v value.V) error { return each.Merge(at[j], p, v) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("round %d, column %d into primitive %d: MergeLane: %v, Merge: %v", round, c, p, got, want)
				}
			}
		}
		for g := 0; g < m; g++ {
			for p := 0; p < lane.Width(); p++ {
				if got, want := lane.Result(g, p), each.Result(g, p); !sameState(got, want) {
					t.Fatalf("group %d, primitive %d: merged by lane %#v, value by value %#v", g, p, got, want)
				}
			}
		}
	})
}
