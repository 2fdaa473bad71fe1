package gmdj

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// TestRewindPinsNothing: a pooled chain keeps its base's finals buffer and
// its workers' base rows for the next request, but once Rewind starts that
// request they hold no value of the one before, and the base lets go of
// the batch it read.
func TestRewindPinsNothing(t *testing.T) {
	batch, err := vec.FromRelation(randDetail(rand.New(rand.NewSource(9)), 300))
	if err != nil {
		t.Fatal(err)
	}
	c := new(Chain)
	b, err := c.EvalBaseLanes(batch, &BaseDef{Cols: []string{"G", "K"}})
	if err != nil {
		t.Fatal(err)
	}
	finals, err := b.Extend(relation.Column{Name: "s", Kind: value.KindString})
	if err != nil {
		t.Fatal(err)
	}
	for i := range finals {
		finals[i] = value.NewString("pinned")
	}
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS n")}},
		Thetas: []expr.Expr{expr.MustParse("F.G = B.G AND B.s <> F.G")},
	}
	if _, _, err := c.EvalStates(b, batch, &md, SubOpts{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if len(c.workers) != 3 || len(c.workers[2].row) != 3 {
		t.Fatalf("%d workers, the last one's row %v: the kernel built no base row", len(c.workers), c.workers[len(c.workers)-1].row)
	}
	c.Rewind()
	if c.base.lanes != nil || c.base.Schema != nil {
		t.Fatal("the rewound chain still holds its base")
	}
	for i, v := range c.base.finals[:cap(c.base.finals)] {
		if v != (value.V{}) {
			t.Fatalf("finals slot %d still holds %v", i, v)
		}
	}
	for w := range c.workers {
		for i, v := range c.workers[w].row[:cap(c.workers[w].row)] {
			if v != (value.V{}) {
				t.Fatalf("worker %d's base row slot %d still holds %v", w, i, v)
			}
		}
	}
}

// TestShrinkKeepsPrepared: Shrink drops a chain's states, match counts and
// finals buffer only when they were sized for more base rows than it is
// given, keeps the prepared operator either way, and the next request
// answers as the first did.
func TestShrinkKeepsPrepared(t *testing.T) {
	batch, err := vec.FromRelation(randDetail(rand.New(rand.NewSource(9)), 300))
	if err != nil {
		t.Fatal(err)
	}
	def := &BaseDef{Cols: []string{"G", "K"}}
	md := MD{
		Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS n"), agg.MustParseSpec("sum(F.Q) AS q")}},
		Thetas: []expr.Expr{expr.MustParse("F.G = B.G AND F.Q > 0")},
	}
	c := new(Chain)
	run := func() (int, [][]value.V) {
		t.Helper()
		b, err := c.EvalBaseLanes(batch, def)
		if err != nil {
			t.Fatal(err)
		}
		slab, _, err := c.EvalStates(b, batch, &md, SubOpts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var states [][]value.V
		for g := 0; g < b.Len(); g++ {
			row := make([]value.V, slab.Width())
			for p := range row {
				row[p] = slab.Result(g, p)
			}
			states = append(states, row)
		}
		n := b.Len()
		c.Rewind()
		return n, states
	}
	n, want := run()
	op := c.ops[0]
	c.Shrink(n)
	if c.slabs == nil {
		t.Fatalf("Shrink(%d) dropped states sized for %d base rows", n, n)
	}
	c.Shrink(n - 1)
	if c.slabs != nil || c.matched != nil || c.base.finals != nil {
		t.Fatalf("Shrink(%d) kept states sized for %d base rows", n-1, n)
	}
	if _, got := run(); !reflect.DeepEqual(got, want) {
		t.Fatal("the request after Shrink answers differently")
	}
	if c.ops[0] != op {
		t.Fatal("Shrink dropped the prepared operator")
	}
}
