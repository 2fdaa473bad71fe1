package site

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// reply is frameReply under the schema of cols, with a fused base's keys
// handed over as boxed rows.
func reply(cols []relation.Column, n int, keys *relation.Relation, slabs []*agg.Slab, touched []int64) (*relation.Frame, []byte, error) {
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	var lanes []relation.LaneSource
	if keys != nil {
		lanes = relation.RowLanes(keys.Rows, keys.Schema.Indexes())
	}
	f, kept := frameReply(schema, n, lanes, slabs, touched)
	return f, kept, nil
}

// boxedReply is the reply sites built before they framed it from the slab
// lanes: the kept groups boxed into rows, keys' row then every slab's
// states, with the Kept bitmap of the groups kept (nil when all were).
func boxedReply(t *testing.T, cols []relation.Column, n int, keys *relation.Relation, slabs []*agg.Slab, touched []int64) (*relation.Relation, []byte) {
	t.Helper()
	out := relation.New(relation.MustSchema(cols...))
	kept := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if touched != nil && touched[i] == 0 {
			continue
		}
		var row relation.Row
		if keys != nil {
			row = append(row, keys.Rows[i]...)
		}
		for _, s := range slabs {
			for p := 0; p < s.Width(); p++ {
				row = append(row, s.Result(i, p))
			}
		}
		out.Rows = append(out.Rows, row)
		kept[i/8] |= 1 << (i % 8)
	}
	if out.Len() == n {
		kept = nil
	}
	return out, kept
}

// stateSlab is a slab of n groups over specs (each "func(x) AS name",
// renamed with suffix) into which group g folds val(g, i) for i < 3.
func stateSlab(t *testing.T, specs []string, suffix string, n int, val func(g, i int) value.V) *agg.Slab {
	t.Helper()
	var ss []agg.Spec
	for _, text := range specs {
		ss = append(ss, agg.MustParseSpec(text+suffix))
	}
	s := agg.NewSlab(ss, n)
	for g := 0; g < n; g++ {
		for i := 0; i < 3; i++ {
			for p := 0; p < s.Width(); p++ {
				if err := s.Add(g, p, val(g, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s
}

// TestReplyFrameMatchesBoxed: a reply framed from the slab lanes is, byte
// for byte, the frame of the reply boxed from the same states, with the
// same Kept bitmap; and the frame reads as the bytes decode. The matrix
// covers every primitive — counts; sums and sums of squares that are
// INT-only, FLOAT-only, mixed (a generic lane) and unseen (NULL); extrema
// over INT, FLOAT, STRING and BOOL with NULL groups; sketches; sets — with
// and without fused keys, under no bitmap and bitmaps keeping some, none
// and all groups, over zero, one and several groups, with one slab and
// with two.
func TestReplyFrameMatchesBoxed(t *testing.T) {
	numeric := []string{"count(*) AS n", "count(x) AS c", "sum(x) AS s", "var(x) AS v", "min(x) AS lo", "max(x) AS hi", "countd(x) AS d", "countdx(x) AS dx"}
	ordered := []string{"count(*) AS n", "count(x) AS c", "min(x) AS lo", "max(x) AS hi", "countd(x) AS d", "countdx(x) AS dx"}
	// Every third group sees only NULLs: its sums and extrema stay unseen.
	nullEvery3 := func(f func(g, i int) value.V) func(g, i int) value.V {
		return func(g, i int) value.V {
			if g%3 == 2 {
				return value.Null
			}
			return f(g, i)
		}
	}
	kinds := []struct {
		name  string
		specs []string
		val   func(g, i int) value.V
	}{
		{"INT", numeric, nullEvery3(func(g, i int) value.V { return value.NewInt(int64(g*7 - i)) })},
		{"FLOAT", numeric, nullEvery3(func(g, i int) value.V { return value.NewFloat(float64(g)/3 - float64(i)) })},
		{"mixed", numeric, nullEvery3(func(g, i int) value.V {
			if g%2 == 0 {
				return value.NewInt(int64(g + i))
			}
			return value.NewFloat(float64(g) + 0.5)
		})},
		{"unseen", numeric, func(g, i int) value.V { return value.Null }},
		{"STRING", ordered, nullEvery3(func(g, i int) value.V { return value.NewString(fmt.Sprintf("Customer#%06d", g*3+i)) })},
		{"BOOL", ordered, nullEvery3(func(g, i int) value.V { return value.NewBool((g+i)%2 == 0) })},
	}
	// keysOf is a fused base of n groups: a STRING key and an INT one,
	// NULL in every fifth group.
	keysOf := func(n int) *relation.Relation {
		r := relation.New(relation.MustSchema(
			relation.Column{Name: "CustName", Kind: value.KindString},
			relation.Column{Name: "Region", Kind: value.KindInt},
		))
		for g := 0; g < n; g++ {
			region := value.NewInt(int64(g % 4))
			if g%5 == 4 {
				region = value.Null
			}
			r.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", g)), region)
		}
		return r
	}
	touchedBy := map[string]func(n int) []int64{
		"no bitmap": func(int) []int64 { return nil },
		"some kept": func(n int) []int64 {
			c := make([]int64, n)
			for g := range c {
				c[g] = int64(g % 4)
			}
			return c
		},
		"none kept": func(n int) []int64 { return make([]int64, n) },
		"all kept": func(n int) []int64 {
			c := make([]int64, n)
			for g := range c {
				c[g] = 1
			}
			return c
		},
	}
	for _, n := range []int{0, 1, 9, 40} {
		for ki, k := range kinds {
			// A second slab of another kind after the first.
			other := kinds[(ki+4)%len(kinds)]
			for _, two := range []bool{false, true} {
				for _, fused := range []bool{false, true} {
					for tname, touched := range touchedBy {
						name := fmt.Sprintf("%d groups of %s, two slabs %v, fused %v, %s", n, k.name, two, fused, tname)
						slabs := []*agg.Slab{stateSlab(t, k.specs, "1", n, k.val)}
						if two {
							slabs = append(slabs, stateSlab(t, other.specs, "2", n, other.val))
						}
						var keys *relation.Relation
						var cols []relation.Column
						if fused {
							keys = keysOf(n)
							cols = append(cols, keys.Schema.Cols...)
						}
						for _, s := range slabs {
							for _, sp := range s.Specs() {
								cols = append(cols, sp.SubColumns()...)
							}
						}
						counts := touched(n)
						f, kept, err := reply(cols, n, keys, slabs, counts)
						if err != nil {
							t.Fatal(err)
						}
						want, wantKept := boxedReply(t, cols, n, keys, slabs, counts)
						if !bytes.Equal(f.Bytes(), relation.AppendFrame(nil, want)) {
							t.Fatalf("%s: framed\n% x\nboxed\n% x", name, f.Bytes(), relation.AppendFrame(nil, want))
						}
						if !bytes.Equal(kept, wantKept) || (kept == nil) != (wantKept == nil) {
							t.Fatalf("%s: Kept %x, boxed %x", name, kept, wantKept)
						}
						dec, err := relation.DecodeFrame(f.Bytes())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(f.Relation(), dec.Relation()) {
							t.Fatalf("%s: the frame reads\n%v\nits bytes decode to\n%v", name, f.Relation(), dec.Relation())
						}
					}
				}
			}
		}
	}
}

// TestReplyFrameAllocsConstant: framing a reply allocates the same number
// of objects for 100 groups as for 10 000 — the bitmap, the lanes, the
// frame and one copy of its bytes, none of them per group.
func TestReplyFrameAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	specs := []string{"count(*) AS n", "sum(x) AS s", "min(x) AS lo", "max(x) AS hi"}
	allocs := func(n int) float64 {
		slab := stateSlab(t, specs, "", n, func(g, i int) value.V { return value.NewInt(int64(g + i)) })
		var cols []relation.Column
		for _, sp := range slab.Specs() {
			cols = append(cols, sp.SubColumns()...)
		}
		touched := make([]int64, n)
		for g := range touched {
			touched[g] = int64(g % 3)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := reply(cols, n, nil, []*agg.Slab{slab}, touched); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("framing a reply allocates %.0f objects for 100 groups, %.0f for 10 000", small, large)
	}
}

// BenchmarkHandleShipped is one site's step of the shuffle_highcard
// workload's unoptimized plan: a shipped base of 2 000 CustName groups,
// some of which the site's 24 000 rows never saw, gets a states-only reply.
func BenchmarkHandleShipped(b *testing.B) {
	e := fusedEngine(b, 24000)
	req := &transport.Request{
		Op: transport.OpEvalRounds, Base: custBase(b, fusedPartition(b, 96000), 2000),
		Rounds: []transport.RoundSpec{{
			Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Touched: true,
			Aggs:   [][]string{{"count(*) AS cnt1", "avg(F.Quantity) AS avg1", "min(F.ShipDate) AS lo1", "max(F.Discount) AS hi1"}},
			Thetas: []string{"F.CustName = B.CustName"},
		}},
	}
	handleOK(b, e, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handleOK(b, e, req)
	}
}
