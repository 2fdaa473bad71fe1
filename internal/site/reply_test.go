package site

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// chainRounds returns the first n of three locally chained rounds on attr,
// each finalizing: the second reads the first's avg1, the third the
// second's avg3 and the first's cnt1, and avg2 is finalized but never read.
// Rounds whose index touched lists track |RNG|.
func chainRounds(attr string, n int, touched ...int) []transport.RoundSpec {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	rounds := []transport.RoundSpec{
		{
			Aggs: [][]string{
				{"count(*) AS cnt1", "avg(F.Quantity) AS avg1"},
				{"count(*) AS cnt2", "avg(F.Discount) AS avg2"},
			},
			Thetas: []string{eq, eq + " AND F.Discount > 0.05"},
		},
		{
			Aggs:   [][]string{{"count(*) AS cnt3", "avg(F.ExtendedPrice) AS avg3"}},
			Thetas: []string{eq + " AND F.Quantity >= B.avg1"},
		},
		{
			Aggs:   [][]string{{"sum(F.Quantity) AS qty4", "min(F.ShipDate) AS lo4", "max(F.Discount) AS hi4"}},
			Thetas: []string{eq + " AND F.ExtendedPrice >= B.avg3 AND F.Quantity > 45 AND B.cnt1 > 0"},
		},
	}[:n]
	for i := range rounds {
		rounds[i].Detail, rounds[i].BaseAlias, rounds[i].DetailAlias, rounds[i].Finalize = "tpcr", "B", "R", true
	}
	for _, i := range touched {
		rounds[i].Touched = true
	}
	return rounds
}

// assembledReply is the reply to req composed the way sites built it
// before they boxed it once: every round through gmdj.EvalSub with its
// Finalize and Touched, each round's base the previous round's whole
// output; then the finals, the touched counts and (for a shipped base) the
// base columns stripped, and the untouched groups dropped. kept is the
// bitmap a shipped base's reply carries.
func assembledReply(t *testing.T, detail *relation.Relation, req *transport.Request) (*relation.Relation, []byte) {
	t.Helper()
	cur := req.Base
	if len(req.BaseCols) > 0 {
		var err error
		if cur, err = gmdj.EvalBase(detail, gmdj.BaseDef{Cols: req.BaseCols}); err != nil {
			t.Fatal(err)
		}
	}
	var keep []string
	if !req.ShipsBase() {
		keep = cur.Schema.Names()
	}
	var totals []int64
	for _, spec := range req.Rounds {
		md, err := parseRound(spec)
		if err != nil {
			t.Fatal(err)
		}
		h, err := gmdj.EvalSub(cur, detail, md, gmdj.SubOpts{Finalize: spec.Finalize, Touched: spec.Touched})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range md.Specs() {
			for i := range s.Prims() {
				keep = append(keep, s.SubColName(i))
			}
		}
		if spec.Touched {
			names := h.Schema.Names()
			if totals == nil {
				totals = make([]int64, h.Len())
			}
			for i, row := range h.Rows {
				totals[i] += row[len(names)-1].Int()
			}
			if h, err = h.Project(names[:len(names)-1]); err != nil {
				t.Fatal(err)
			}
		}
		cur = h
	}
	out, err := cur.Project(keep)
	if err != nil {
		t.Fatal(err)
	}
	if totals == nil {
		return out, nil
	}
	kept := make([]byte, (out.Len()+7)/8)
	rows := out.Rows[:0]
	for i, row := range out.Rows {
		if totals[i] > 0 {
			rows = append(rows, row)
			kept[i/8] |= 1 << (i % 8)
		}
	}
	if len(rows) == out.Len() {
		kept = nil
	}
	out.Rows = rows
	return out, kept
}

// TestReplyMatchesAssembledChain: boxing a reply once from the rounds'
// states gives byte for byte the frame and Kept bitmap of the reply
// assembled from every round's full EvalSub output — fused chains of one
// to three rounds with and without Touched, shipped-base chains of one and
// two rounds over a base with groups the site never saw, and requests
// whose every group is untouched.
func TestReplyMatchesAssembledChain(t *testing.T) {
	part := fusedPartition(t, 6000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	shipped, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: []string{"CustGroup"}})
	if err != nil {
		t.Fatal(err)
	}
	foreign := relation.Row{value.NewInt(100000)}
	shipped.Rows = append(append(shipped.Rows[:3:3], foreign), shipped.Rows[3:]...)
	onlyForeign := relation.New(shipped.Schema)
	onlyForeign.Rows = []relation.Row{foreign, {value.NewInt(100001)}}
	none := chainRounds("CustGroup", 1, 0)
	none[0].Thetas[0] += " AND F.Quantity > 1000"

	fused := func(rounds []transport.RoundSpec) *transport.Request {
		return &transport.Request{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustGroup"}, Rounds: rounds}
	}
	over := func(base *relation.Relation, rounds []transport.RoundSpec) *transport.Request {
		return &transport.Request{Op: transport.OpEvalRounds, Base: base, Rounds: rounds}
	}
	cases := []struct {
		name string
		req  *transport.Request
	}{
		{"fused 1", fused(chainRounds("CustGroup", 1))},
		{"fused 2", fused(chainRounds("CustGroup", 2))},
		{"fused 3", fused(chainRounds("CustGroup", 3))},
		{"fused 1 touched", fused(chainRounds("CustGroup", 1, 0))},
		{"fused 2 touched", fused(chainRounds("CustGroup", 2, 1))},
		{"fused 3 last touched", fused(chainRounds("CustGroup", 3, 2))},
		{"fused 3 all touched", fused(chainRounds("CustGroup", 3, 0, 1, 2))},
		{"fused none touched", fused(none)},
		{"shipped 1", over(shipped, chainRounds("CustGroup", 1))},
		{"shipped 1 touched", over(shipped, chainRounds("CustGroup", 1, 0))},
		{"shipped 2", over(shipped, chainRounds("CustGroup", 2))},
		{"shipped 2 touched", over(shipped, chainRounds("CustGroup", 2, 0, 1))},
		{"shipped none touched", over(onlyForeign, chainRounds("CustGroup", 2, 0, 1))},
	}
	for _, c := range cases {
		want, kept := assembledReply(t, part, c.req)
		if !c.req.ShipsBase() {
			kept = nil
		}
		got := handleOK(t, e, c.req)
		if f, err := got.Frame(); err != nil || !bytes.Equal(f.Bytes(), relation.AppendFrame(nil, want)) {
			t.Errorf("%s: reply\n%s\nwant\n%s %v", c.name, replyRel(t, got), want.Schema, want.Rows)
		}
		if !bytes.Equal(got.Kept, kept) || (got.Kept == nil) != (kept == nil) {
			t.Errorf("%s: Kept %x, want %x", c.name, got.Kept, kept)
		}
		if c.name == "shipped 2 touched" && kept == nil || c.name == "fused 3 last touched" && want.Len() == 200 {
			t.Errorf("%s: no group dropped, so the case checks nothing it should", c.name)
		}
	}
}

// bytesPerRequest is what one evaluation of req allocates, averaged over
// runs evaluations after a first.
func bytesPerRequest(tb testing.TB, e *Engine, req *transport.Request, runs int) float64 {
	handleOK(tb, e, req)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		handleOK(tb, e, req)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// TestChainBytesPerRequest: a longer local chain over the same fused base
// boxes its extra states once and the finals a later round reads — not
// every earlier column again in every round. Going from one round to three
// over 2000 groups may add, at 32 bytes a value, round 2's and round 3's
// states (3 columns each) and the intermediate bases (the base column and
// the finals read later: 3 values a group before round 2, 4 before round
// 3); with slack for each extra round's unboxed slab lanes and match counts
// (128 bytes a group) and a fixed 64 KB for parsing and compiling.
func TestChainBytesPerRequest(t *testing.T) {
	e := fusedEngine(t, 24000)
	req := func(n int) *transport.Request {
		return &transport.Request{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustName"}, Rounds: chainRounds("CustName", n)}
	}
	one, three := req(1), req(3)
	groups := float64(replyRel(t, handleOK(t, e, one)).Len())
	if groups < 1900 {
		t.Fatalf("%v groups, want about 2000", groups)
	}
	const extraStates, intermediate, extraRounds = 3 + 3, 3 + 4, 2
	limit := groups*(32*(extraStates+intermediate)+128*extraRounds) + 64<<10
	b1, b3 := bytesPerRequest(t, e, one, 20), bytesPerRequest(t, e, three, 20)
	if b3-b1 > limit {
		t.Errorf("3 rounds allocate %.0f B per request, 1 round %.0f: %.0f more, want at most %.0f", b3, b1, b3-b1, limit)
	}
}

// BenchmarkHandleChained is one site's request of the fully optimized
// Fig. 5 plan on the scan_lowcard workload's data: a fused base over the
// site's share of 200 CustGroup values and two locally chained rounds, the
// first finalizing the average the second reads.
func BenchmarkHandleChained(b *testing.B) {
	part, err := tpcr.GeneratePartition(
		tpcr.Config{Rows: 96000, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine("site0")
	e.Load("tpcr", part)
	req := fusedRequest("")
	handleOK(b, e, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handleOK(b, e, req)
	}
}
