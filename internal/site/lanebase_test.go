package site

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// finalsRounds is a three-round local chain on the key columns keys whose
// later θs read earlier rounds' finals: round 2 reads round 1's disc1,
// NULL for every group none of whose rows has a Quantity above 45; round
// 3 reads round 2's STRING mode2 and round 1's big1. Round touched, if
// any, tracks |RNG|.
func finalsRounds(touched int, keys ...string) []transport.RoundSpec {
	eq := ""
	for i, k := range keys {
		if i > 0 {
			eq += " AND "
		}
		eq += "F." + k + " = B." + k
	}
	rounds := []transport.RoundSpec{
		{
			Aggs:   [][]string{{"count(*) AS big1", "avg(F.Discount) AS disc1"}},
			Thetas: []string{eq + " AND F.Quantity > 45"},
		},
		{
			Aggs:   [][]string{{"count(*) AS cnt2", "min(F.ShipMode) AS mode2", "sum(F.Quantity) AS q2"}},
			Thetas: []string{eq + " AND (F.Discount >= B.disc1 OR F.Quantity < 10)"},
		},
		{
			Aggs:   [][]string{{"sum(F.Quantity) AS q3", "max(F.ShipMode) AS hi3"}},
			Thetas: []string{eq + " AND F.ShipMode >= B.mode2 AND coalesce(B.disc1, -1) < F.Discount + B.big1"},
		},
	}
	for i := range rounds {
		rounds[i].Detail, rounds[i].BaseAlias, rounds[i].DetailAlias, rounds[i].Finalize = "tpcr", "B", "R", true
	}
	if touched >= 0 {
		rounds[touched].Touched = true
	}
	return rounds
}

// TestFusedBaseMatchesShipped: a fused base, read from the detail batch's
// lanes, and the same base shipped as boxed rows give byte for byte the
// same reply: the fused one is the base's rows beside the states the
// shipped one answers with (Kept applied). Chains of three rounds whose
// later θs read the finals of two earlier ones, some of them NULL, over
// STRING keys and over an INT and a STRING key, with and without Touched,
// at 1, 3 and GOMAXPROCS kernel workers.
func TestFusedBaseMatchesShipped(t *testing.T) {
	part := fusedPartition(t, 6000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, keys := range [][]string{{"CustName"}, {"CustGroup", "ShipMode"}} {
		base, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: keys})
		if err != nil {
			t.Fatal(err)
		}
		for _, touched := range []int{-1, 2} {
			rounds := finalsRounds(touched, keys...)
			fused := &transport.Request{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: keys, Rounds: rounds}
			shippedReq := &transport.Request{Op: transport.OpEvalRounds, Base: base, Rounds: rounds}
			var first []byte
			for _, w := range []int{1, 3, procs} {
				runtime.GOMAXPROCS(w)
				got := handleOK(t, e, fused)
				shipped := handleOK(t, e, shippedReq)
				states := replyRel(t, shipped)
				if slices.Index(column(t, shipped, "big1__p0"), value.NewInt(0)) < 0 {
					t.Fatalf("%v: every group has a Quantity above 45: no NULL final is read", keys)
				}
				schema, err := base.Schema.Concat(states.Schema.Cols...)
				if err != nil {
					t.Fatal(err)
				}
				want := relation.New(schema)
				for i, row := range base.Rows {
					if shipped.Kept == nil || shipped.Kept[i/8]&(1<<(i%8)) != 0 {
						want.Rows = append(want.Rows, append(slices.Clone(row), states.Rows[want.Len()]...))
					}
				}
				if touched >= 0 && want.Len() == base.Len() {
					t.Fatalf("%v, touched: every group kept, so Kept checks nothing", keys)
				}
				f, err := got.Frame()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(f.Bytes(), relation.AppendFrame(nil, want)) {
					t.Fatalf("%v, touched round %d, W=%d: the fused reply is not the base beside the shipped states", keys, touched, w)
				}
				if first == nil {
					first = f.Bytes()
				} else if !bytes.Equal(f.Bytes(), first) {
					t.Fatalf("%v, touched round %d: W=%d answers other bytes than W=1", keys, touched, w)
				}
			}
		}
	}
}

// TestFinalizeFailureNamesRound: an INT sum past 2^63 that a later θ reads
// fails the request where it is finalized, naming the round and the
// aggregate, whether the base is fused or shipped.
func TestFinalizeFailureNamesRound(t *testing.T) {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindString},
		relation.Column{Name: "V", Kind: value.KindInt},
	))
	r.MustAppend(value.NewString("a"), value.NewInt(5))
	r.MustAppend(value.NewString("b"), value.NewInt(math.MaxInt64))
	r.MustAppend(value.NewString("b"), value.NewInt(1))
	e := NewEngine("site0")
	e.Load("t", r)
	rounds := []transport.RoundSpec{
		{Detail: "t", Finalize: true, Aggs: [][]string{{"count(*) AS n1", "sum(F.V) AS big"}}, Thetas: []string{"F.K = B.K"}},
		{Detail: "t", Finalize: true, Aggs: [][]string{{"count(*) AS n2"}}, Thetas: []string{"F.K = B.K AND F.V <= B.big"}},
	}
	base, err := gmdj.EvalBase(r, gmdj.BaseDef{Cols: []string{"K"}})
	if err != nil {
		t.Fatal(err)
	}
	const want = "evalRounds: round 1: finalize sum(F.V) AS big: agg: integer sum overflows int64"
	for name, req := range map[string]*transport.Request{
		"fused":   {Op: transport.OpEvalRounds, Detail: "t", BaseCols: []string{"K"}, Rounds: rounds},
		"shipped": {Op: transport.OpEvalRounds, Base: base, Rounds: rounds},
	} {
		if got := e.Handle(context.Background(), req).Err; got != want {
			t.Errorf("%s: error %q, want %q", name, got, want)
		}
	}
}

// TestPooledChainFinalsIsolated: two fused requests whose later rounds
// read finals of different shapes — a STRING key's customers with STRING
// and NULL finals, and 200 groups of an INT key with numeric ones —
// alternate on one engine, in turn and from concurrent goroutines, and
// each gets byte for byte the reply it gets from a fresh engine: neither
// reads the other's finals through the pooled chain's buffer.
func TestPooledChainFinalsIsolated(t *testing.T) {
	part := fusedPartition(t, 6000)
	engine := func() *Engine {
		e := NewEngine("site0")
		e.Load("tpcr", part)
		return e
	}
	reqs := []*transport.Request{
		{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustName"}, Rounds: finalsRounds(-1, "CustName")},
		{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustGroup"}, Rounds: chainRounds("CustGroup", 3)},
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = replyBytes(handleOK(t, engine(), req))
	}
	e := engine()
	check := func(report func(string, ...any), k int) {
		if got := replyBytes(e.Handle(context.Background(), reqs[k%2])); !bytes.Equal(got, want[k%2]) {
			report("request %d, turn %d: the reply differs from a fresh engine's", k%2, k)
		}
	}
	for k := 0; k < 8; k++ {
		check(t.Fatalf, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < g+8; k++ {
				check(t.Errorf, k)
			}
		}(g)
	}
	wg.Wait()
}
