package gmdj

import (
	"math/rand"
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
	b, err := c.EvalBaseLanes(batch, BaseDef{Cols: []string{"G", "K"}})
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
	if _, _, err := c.EvalStates(b, batch, md, SubOpts{Workers: 3}); err != nil {
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
