package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// assertExactRelation compares two relations bit for bit after sorting by
// the key columns: kinds, ints, strings (sketch states included) and float
// bit patterns.
func assertExactRelation(t *testing.T, label string, got, want *relation.Relation, keys []string) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: schema %s != %s", label, got.Schema, want.Schema)
	}
	if err := got.SortBy(keys...); err != nil {
		t.Fatal(err)
	}
	if err := want.SortBy(keys...); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.K != w.K || g.Int() != w.Int() || g.S != w.S || math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
				t.Fatalf("%s: row %d col %s: %#v != %#v", label, i, got.Schema.Cols[j].Name, g, w)
			}
		}
	}
}

// TestSlabAccumulatorsAgree runs every aggregate family — the sketch
// primitives included — through the three holders of accumulator slabs:
// the vectorized evaluation at the sites, the coordinator's
// synchronization above it, and the row reference gmdj.EvalQuery runs.
// The measures are integers, so sums and sums of squares are exact
// whatever order fragments merge in, and the distributed result must equal
// the centralized evaluation byte for byte.
func TestSlabAccumulatorsAgree(t *testing.T) {
	rows := testRows(600, 11)
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{
			{
				Aggs: [][]agg.Spec{{
					agg.MustParseSpec("count(*) AS n"),
					agg.MustParseSpec("count(F.DestAS) AS n_dest"),
					agg.MustParseSpec("sum(F.NumBytes) AS total"),
					agg.MustParseSpec("avg(F.NumBytes) AS mean"),
					agg.MustParseSpec("min(F.NumBytes) AS lo"),
					agg.MustParseSpec("max(F.NumBytes) AS hi"),
					agg.MustParseSpec("var(F.NumBytes) AS spread"),
					agg.MustParseSpec("stddev(F.NumBytes) AS dev"),
					agg.MustParseSpec("countd(F.NumBytes) AS approx_sizes"),
					agg.MustParseSpec("countdx(F.DestAS) AS dests"),
				}},
				Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
			},
			{
				// Correlated with the first operator's average, and empty
				// for some groups: empty sketch and extremum states must
				// ship and merge as NULL.
				Aggs: [][]agg.Spec{{
					agg.MustParseSpec("count(*) AS n_big"),
					agg.MustParseSpec("max(F.NumBytes) AS hi_big"),
					agg.MustParseSpec("countd(F.DestAS) AS approx_big"),
					agg.MustParseSpec("countdx(F.NumBytes) AS sizes_big"),
				}},
				Thetas: []expr.Expr{expr.MustParse(
					"F.SourceAS = B.SourceAS AND F.NumBytes >= B.mean AND F.NumBytes > 990")},
			},
		},
	}
	for _, partitioned := range []bool{true, false} {
		coord, cat, whole := cluster(t, rows, 3, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, DefaultOptions} {
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opts), err)
			}
			assertExactRelation(t, optLabel(opts), got, want, q.Keys())
		}
	}
}

// TestSlabNoAggregates: an operator may carry a θ and no aggregates at
// all (MD.Validate accepts it), so a slab group can be zero accumulators
// wide. The fused synchronization still has to add one group per new
// fragment key and agree with the centralized evaluation.
func TestSlabNoAggregates(t *testing.T) {
	rows := testRows(300, 5)
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{"SourceAS"}},
		MDs: []gmdj.MD{{
			Aggs:   [][]agg.Spec{{}},
			Thetas: []expr.Expr{expr.MustParse("F.SourceAS = B.SourceAS")},
		}},
	}
	for _, partitioned := range []bool{true, false} {
		coord, cat, whole := cluster(t, rows, 3, partitioned)
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, DefaultOptions} {
			got, _, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opts), err)
			}
			assertExactRelation(t, optLabel(opts), got, want, q.Keys())
		}
	}
}

// synchronizeFixture is the coordinator's side of one step of the Fig. 5
// query without optimizations: X of groups CustName rows, shipped whole to
// every site, and each site's states-only reply for count(*) and avg.
func synchronizeFixture(groups, sites int) (*relation.Relation, *Step, map[string]shipment, []*transport.Response) {
	x := relation.New(relation.MustSchema(relation.Column{Name: "CustName", Kind: value.KindString}))
	for g := 0; g < groups; g++ {
		x.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", g)))
	}
	step := &Step{Specs: []agg.Spec{agg.MustParseSpec("count(*) AS cnt1"), agg.MustParseSpec("avg(F.Quantity) AS avg1")}}
	var cols []relation.Column
	for _, sp := range step.Specs {
		cols = append(cols, sp.SubColumns()...)
	}
	xf, err := relation.FrameOf(x)
	if err != nil {
		panic(err)
	}
	ships := make(map[string]shipment, sites)
	replies := make([]*transport.Response, sites)
	for s := range replies {
		rel := relation.New(relation.MustSchema(cols...))
		for g := 0; g < groups; g++ {
			n := int64((g*7+s)%5 + 1)
			rel.MustAppend(value.NewInt(n), value.NewInt(n*int64(g%50+1)), value.NewInt(n))
		}
		replies[s] = &transport.Response{Rel: rel}
		ships[fmt.Sprintf("site%d", s)] = shipment{base: xf}
	}
	return x, step, ships, replies
}

// runSynchronize merges the replies as they would arrive on the stream,
// from as many sites.
func runSynchronize(x *relation.Relation, step *Step, ships map[string]shipment, replies []*transport.Response) (*relation.Relation, error) {
	return synchronizeStream(x, step, ships, len(replies), streamOf(replies))
}

// synchronizeStream merges the arrivals on stream from sites sites and
// finalizes the merge as Coordinator.round does, handing its memory back.
func synchronizeStream(x *relation.Relation, step *Step, ships map[string]shipment, sites int, stream <-chan streamItem) (*relation.Relation, error) {
	var rs RoundStats
	c := &Coordinator{clients: namedClients(sites)}
	m, _, err := c.synchronize(x, stream, step, ships, &rs, false)
	if err != nil {
		return nil, err
	}
	return m.finalized()
}

// TestSynchronizeRefusesMisplacedStates: a states-only reply must carry one
// row for each shipped row its Kept bitmap marks, under a bitmap of
// exactly ⌈shipped/8⌉ bytes with no bit past the last shipped row; any
// other reply is refused, naming its site, never merged into the wrong
// groups.
func TestSynchronizeRefusesMisplacedStates(t *testing.T) {
	cases := []struct {
		kept []byte
		rows int
		want string
	}{
		{[]byte{0b101, 0}, 10, "site site0 fragment: states-only fragment has 10 rows for 2 kept positions"},
		{[]byte{0b101}, 10, "site site0 fragment: kept bitmap 05 is not over the 10 shipped rows"},
		{[]byte{0xFF}, 8, "site site0 fragment: kept bitmap ff is not over the 10 shipped rows"},
		{[]byte{0xFF, 0xFF, 0xAA}, 10, "site site0 fragment: kept bitmap ff ff aa is not over the 10 shipped rows"},
		{[]byte{0xFF, 0x07}, 10, "site site0 fragment: kept bitmap ff 07 is not over the 10 shipped rows"},
	}
	for _, c := range cases {
		x, step, ships, replies := synchronizeFixture(10, 1)
		replies[0].Kept = c.kept
		replies[0].Rel.Rows = replies[0].Rel.Rows[:c.rows]
		if _, err := runSynchronize(x, step, ships, replies); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Kept % x over %d rows: err = %v, want %q", c.kept, c.rows, err, c.want)
		}
	}
}

// replyHandler answers every request with its one reply.
type replyHandler struct{ resp *transport.Response }

func (h replyHandler) Handle(context.Context, *transport.Request) *transport.Response { return h.resp }

// received returns replies as a site client delivers them: each sent over
// the wire, in answer to a request that ships x, and arriving as its frame.
func received(tb testing.TB, x *relation.Relation, replies []*transport.Response) []*transport.Response {
	out := make([]*transport.Response, len(replies))
	for i, resp := range replies {
		cl := localClient(tb, fmt.Sprintf("site%d", i), replyHandler{resp})
		got, err := cl.Call(context.Background(), &transport.Request{Op: transport.OpEvalRounds, Base: x})
		cl.Close()
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = got
	}
	return out
}

// BenchmarkSynchronize is the coordinator's merge and finalization of one
// such step: four states-only replies of 2 000 groups, as the site clients
// deliver them.
func BenchmarkSynchronize(b *testing.B) {
	x, step, ships, replies := synchronizeFixture(2000, 4)
	replies = received(b, x, replies)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSynchronize(x, step, ships, replies); err != nil {
			b.Fatal(err)
		}
	}
}

// fusedFixture is the coordinator's side of a fused step grouped on
// CustName: site s's keyed reply of groups[s] customers, site-disjoint,
// with the states of count(*) and avg. Both merge them by key; a disjoint
// step also checks that no key comes from two sites.
func fusedFixture(disjoint bool, groups ...int) (*Step, []*transport.Response) {
	step := &Step{FuseBase: true, Request: transport.Request{Op: transport.OpEvalRounds, BaseCols: []string{"CustName"}},
		Specs: []agg.Spec{agg.MustParseSpec("count(*) AS cnt1"), agg.MustParseSpec("avg(F.Quantity) AS avg1")}}
	step.room = len(step.Specs)
	if disjoint {
		step.partition, step.Request.SiteDisjoint = []string{"custname"}, true
	}
	cols := []relation.Column{{Name: "CustName", Kind: value.KindString}}
	for _, sp := range step.Specs {
		cols = append(cols, sp.SubColumns()...)
	}
	replies := make([]*transport.Response, len(groups))
	first := 0
	for s := range replies {
		rel := relation.New(relation.MustSchema(cols...))
		for g := 0; g < groups[s]; g++ {
			n := int64(g%5 + 1)
			rel.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", first+g)), value.NewInt(n), value.NewInt(n*int64(g%50+1)), value.NewInt(n))
		}
		replies[s], first = &transport.Response{Rel: rel}, first+groups[s]
	}
	return step, replies
}

// BenchmarkSynchronizeFused is the merge and finalization of a fused step:
// four keyed replies of 500 groups, as the site clients deliver them,
// merged by key, with the site-disjoint claim unchecked and checked; and
// four keyed replies of 46, 48, 50 and 56 groups, the smallest first, as
// scan_lowcard's sites answer when the smallest is fastest.
func BenchmarkSynchronizeFused(b *testing.B) {
	for _, c := range []struct {
		name     string
		disjoint bool
		groups   []int
	}{
		{"keyed", false, []int{500, 500, 500, 500}},
		{"disjoint", true, []int{500, 500, 500, 500}},
		{"skewed", false, []int{46, 48, 50, 56}},
	} {
		b.Run(c.name, func(b *testing.B) {
			step, replies := fusedFixture(c.disjoint, c.groups...)
			replies = received(b, nil, replies)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runSynchronize(nil, step, nil, replies); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
