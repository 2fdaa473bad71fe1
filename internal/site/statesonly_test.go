package site

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// shippedBase is the base the coordinator would ship testFlow's site, with
// a foreign group (9,9) the site never matches at position 1.
func shippedBase(t *testing.T) *relation.Relation {
	t.Helper()
	b, err := gmdj.EvalBase(flowRel(testFlow...), gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}
	b.Rows = append(b.Rows[:1], append([]relation.Row{{value.NewInt(9), value.NewInt(9)}}, b.Rows[1:]...)...)
	return b
}

// assertStatesOf checks that a states-only reply is the keyed reply with
// the base columns cut off: same states, same rows, same order.
func assertStatesOf(t *testing.T, states, echo *relation.Relation, baseCols int) {
	t.Helper()
	if want := echo.Schema.Cols[baseCols:]; !reflect.DeepEqual(states.Schema.Cols, want) {
		t.Fatalf("states-only schema %s, want %v", states.Schema, want)
	}
	if states.Len() != echo.Len() {
		t.Fatalf("states-only reply has %d rows, keyed reply %d", states.Len(), echo.Len())
	}
	for i, row := range echo.Rows {
		if !reflect.DeepEqual(states.Rows[i], row[baseCols:]) {
			t.Errorf("row %d: states %v, keyed %v", i, states.Rows[i], row)
		}
	}
}

// TestEvalRoundsStatesOnly: the flag strips the echo of the shipped base
// and nothing else — the reply holds the states alone, row i answering
// the i-th shipped row Kept marks. A request without it (a coordinator
// from before the flag) gets the full keyed echo and no Kept.
func TestEvalRoundsStatesOnly(t *testing.T) {
	e := loadedEngine(t)
	b := shippedBase(t)
	for _, touched := range []bool{false, true} {
		req := &transport.Request{Op: transport.OpEvalRounds, Base: b, Rounds: []transport.RoundSpec{roundSpec(touched, false)}}
		echo := e.Handle(context.Background(), req)
		if echo.Error() != nil {
			t.Fatal(echo.Error())
		}
		if echo.Kept != nil || !reflect.DeepEqual(echo.Rel.Schema.Cols[:b.Schema.Len()], b.Schema.Cols) {
			t.Fatalf("touched=%v: keyed reply %s with Kept %v, want the base echoed and no bitmap", touched, echo.Rel.Schema, echo.Kept)
		}
		states := *req
		states.StatesOnly = true
		resp := e.Handle(context.Background(), &states)
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		assertStatesOf(t, resp.Rel, echo.Rel, b.Schema.Len())
		var want []byte
		if touched {
			want = []byte{0b1101} // shipped row 1, the foreign group, dropped
		}
		if !reflect.DeepEqual(resp.Kept, want) {
			t.Errorf("touched=%v: Kept = %08b, want %08b", touched, resp.Kept, want)
		}
	}
	// States-only answers a shipped base; a fused one has no positions.
	if resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS", "DestAS"},
		Rounds: []transport.RoundSpec{roundSpec(false, false)}, StatesOnly: true,
	}); resp.Error() == nil {
		t.Error("states-only reply to a fused base accepted")
	}
}

// TestEvalRoundsChainedStatesOnly: in a local chain only the last
// operator skips the echo; the reply leads with the earlier operators'
// states, and Proposition 1 acts on the whole chain.
func TestEvalRoundsChainedStatesOnly(t *testing.T) {
	e := loadedEngine(t)
	b := shippedBase(t)
	req := &transport.Request{Op: transport.OpEvalRounds, Base: b, Rounds: []transport.RoundSpec{
		{
			Detail:   "flow",
			Aggs:     [][]string{{"count(*) AS cnt1", "sum(F.NumBytes) AS sum1"}},
			Thetas:   []string{"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS"},
			Finalize: true, Touched: true,
		},
		{
			Detail:   "flow",
			Aggs:     [][]string{{"count(*) AS cnt2"}},
			Thetas:   []string{"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS AND F.NumBytes >= B.sum1 / B.cnt1"},
			Finalize: true, Touched: true,
		},
	}}
	echo := e.Handle(context.Background(), req)
	if echo.Error() != nil {
		t.Fatal(echo.Error())
	}
	states := *req
	states.StatesOnly = true
	resp := e.Handle(context.Background(), &states)
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	assertStatesOf(t, resp.Rel, echo.Rel, b.Schema.Len())
	if want := []byte{0b1101}; !reflect.DeepEqual(resp.Kept, want) {
		t.Errorf("Kept = %08b, want %08b", resp.Kept, want)
	}
}

// TestReplayKeyCoversRequestShape: two requests with the same (epoch,
// round), θs and base length but different aggregates, shipped columns or
// reply layout are different requests, and neither may be answered from
// the other's cache entry.
func TestReplayKeyCoversRequestShape(t *testing.T) {
	e := loadedEngine(t)
	b, err := gmdj.EvalBase(flowRel(testFlow...), gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := b.Project([]string{"DestAS", "SourceAS"})
	if err != nil {
		t.Fatal(err)
	}
	request := func(change func(*transport.Request)) *transport.Request {
		req := &transport.Request{
			Op: transport.OpEvalRounds, Base: b, Rounds: []transport.RoundSpec{roundSpec(false, false)},
			Epoch: "ep", Round: 1,
		}
		change(req)
		return req
	}
	first := e.Handle(context.Background(), request(func(*transport.Request) {}))
	if first.Error() != nil {
		t.Fatal(first.Error())
	}
	for name, req := range map[string]*transport.Request{
		"aggregates": request(func(r *transport.Request) {
			r.Rounds[0].Aggs = [][]string{{"max(F.NumBytes) AS cnt1", "min(F.NumBytes) AS sum1"}}
		}),
		"shipped columns": request(func(r *transport.Request) { r.Base = swapped }),
		"reply layout":    request(func(r *transport.Request) { r.StatesOnly = true }),
	} {
		resp := e.Handle(context.Background(), req)
		if resp.Error() != nil {
			t.Fatalf("%s: %v", name, resp.Error())
		}
		if resp == first {
			t.Errorf("a request with different %s was answered from the first request's cache entry", name)
		}
	}
}
