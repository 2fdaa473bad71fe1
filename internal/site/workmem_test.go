package site

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
)

// custBase is the CustName base the coordinator would ship a site holding
// part: its first n groups.
func custBase(tb testing.TB, part *relation.Relation, n int) *relation.Relation {
	tb.Helper()
	b, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: []string{"CustName"}})
	if err != nil {
		tb.Fatal(err)
	}
	if b.Len() < n {
		tb.Fatalf("partition has %d customers, want at least %d", b.Len(), n)
	}
	b.Rows = b.Rows[:n]
	return b
}

// chainOverBase is a locally chained pair of rounds over a shipped base: the
// second reads the average the first finalizes, and the reply leads with
// the first round's states.
func chainOverBase(base *relation.Relation) *transport.Request {
	const eq = "F.CustName = B.CustName"
	return &transport.Request{
		Op: transport.OpEvalRounds, Base: base,
		Rounds: []transport.RoundSpec{
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs:   [][]string{{"count(*) AS cnt1", "avg(F.Quantity) AS avg1"}},
				Thetas: []string{eq},
			},
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs:   [][]string{{"count(*) AS cnt3"}},
				Thetas: []string{eq + " AND F.Quantity >= B.avg1"},
			},
		},
	}
}

// TestChainedStatesOnlyAllocsDoNotScaleWithBase: the states-only reply of a
// two-round chain over a shipped base is built in one backing, not one
// allocation per reply row.
func TestChainedStatesOnlyAllocsDoNotScaleWithBase(t *testing.T) {
	part := fusedPartition(t, 24000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	allocs := func(groups int) float64 {
		req := chainOverBase(custBase(t, part, groups))
		if got := replyRel(t, handleOK(t, e, req)); got.Len() != groups || got.Schema.Len() != 4 {
			t.Fatalf("%d groups: reply %s with %d rows", groups, got.Schema, got.Len())
		}
		return testing.AllocsPerRun(10, func() { handleOK(t, e, req) })
	}
	const few, many = 500, 1970
	small, large := allocs(few), allocs(many)
	if large-small > (many-few)/10 {
		t.Errorf("allocations scale with the shipped base: %.0f at %d groups, %.0f at %d", small, few, large, many)
	}
}

// replyBytes renders everything a reply says but its timing: the error and
// its code, the Kept bitmap and the relation's frame.
func replyBytes(resp *transport.Response) []byte {
	b := fmt.Appendf(nil, "%s|%d|%x|", resp.Err, resp.Code, resp.Kept)
	if f, err := resp.Frame(); err == nil {
		b = append(b, f.Bytes()...)
	}
	return b
}

// TestPooledChainsInvisible: an engine's evaluations draw their kernel
// buffers from a pool of chains, and no request can tell. A mix of fused,
// filtered, states-only, chained and failing requests, sent to one engine
// in order and then from concurrent goroutines, gets byte for byte the
// replies each request gets from an engine that has served nothing before.
func TestPooledChainsInvisible(t *testing.T) {
	part, err := tpcr.GeneratePartition(
		tpcr.Config{Rows: 6000, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine := func() *Engine {
		e := NewEngine("site0")
		e.Load("tpcr", part)
		return e
	}
	statesOnly := chainOverBase(custBase(t, part, 700))
	statesOnly.Rounds = statesOnly.Rounds[:1]
	failing := fusedRequest("")
	failing.Rounds[1].Aggs[0] = append(failing.Rounds[1].Aggs[0], "sum(F.CustName) AS bad")
	mix := []*transport.Request{
		fusedRequest(""),
		chainOverBase(custBase(t, part, 1200)),
		fusedRequest("F.Discount > 0.02 AND F.Quantity < 30"),
		statesOnly,
		failing,
		{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustName"}, BaseWhere: "F.Quantity > 45"},
		chainOverBase(custBase(t, part, 40)),
		fusedRequest("F.Discount > 0.05"),
	}
	want := make([][]byte, len(mix))
	for i, req := range mix {
		want[i] = replyBytes(engine().Handle(context.Background(), req))
	}
	if !bytes.Contains(want[4], []byte("sum over non-numeric")) {
		t.Fatalf("the failing request did not fail in the kernel: %.80q", want[4])
	}

	e := engine()
	check := func(report func(string, ...any), pass, i int) {
		if got := replyBytes(e.Handle(context.Background(), mix[i])); !bytes.Equal(got, want[i]) {
			report("pass %d, request %d: the reply differs from a fresh engine's (%d vs %d bytes)", pass, i, len(got), len(want[i]))
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i := range mix {
			check(t.Fatalf, pass, i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(mix); k++ {
				check(t.Errorf, g, (g*3+k)%len(mix))
			}
		}(g)
	}
	wg.Wait()
}
