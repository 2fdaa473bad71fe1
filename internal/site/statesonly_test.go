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

// assertStatesOf checks that a states-only reply is a keyed reply with the
// base columns cut off: the same state columns, and row rows[i] holding
// exactly the states of keyed row i.
func assertStatesOf(t *testing.T, states, keyed *relation.Relation, baseCols int, rows []int) {
	t.Helper()
	if want := keyed.Schema.Cols[baseCols:]; !reflect.DeepEqual(states.Schema.Cols, want) {
		t.Fatalf("states-only schema %s, want %v", states.Schema, want)
	}
	if keyed.Len() != len(rows) {
		t.Fatalf("keyed reply has %d rows, want %d", keyed.Len(), len(rows))
	}
	for i, row := range keyed.Rows {
		if !reflect.DeepEqual(states.Rows[rows[i]], row[baseCols:]) {
			t.Errorf("row %d: states %v, keyed %v", rows[i], states.Rows[rows[i]], row)
		}
	}
}

// fusedReply is the keyed reply to rounds over the base testFlow's site
// computes itself: shippedBase without its foreign row, in the same order.
func fusedReply(t *testing.T, e *Engine, rounds []transport.RoundSpec) *relation.Relation {
	t.Helper()
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS", "DestAS"}, Rounds: rounds,
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	rel := replyRel(t, resp)
	if resp.Kept != nil || rel.Schema.Cols[0].Name != "SourceAS" || rel.Schema.Cols[1].Name != "DestAS" {
		t.Fatalf("fused reply %s with Kept %v, want the base echoed and no bitmap", rel.Schema, resp.Kept)
	}
	return rel
}

// TestEvalRoundsStatesOnly: a shipped base gets the states alone — the
// keyed reply with the echo of the base stripped and nothing else — row i
// answering the i-th shipped row Kept marks.
func TestEvalRoundsStatesOnly(t *testing.T) {
	e := loadedEngine(t)
	b := shippedBase(t)
	for _, touched := range []bool{false, true} {
		rounds := []transport.RoundSpec{roundSpec(touched, false)}
		resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpEvalRounds, Base: b, Rounds: rounds})
		if resp.Error() != nil {
			t.Fatal(resp.Error())
		}
		rows, want := []int{0, 2, 3}, []byte(nil)
		if touched {
			rows, want = []int{0, 1, 2}, []byte{0b1101} // shipped row 1, the foreign group, dropped
		} else if c := replyRel(t, resp).Rows[1][0]; c.Int() != 0 {
			t.Errorf("the foreign group counts %v rows", c)
		}
		assertStatesOf(t, replyRel(t, resp), fusedReply(t, e, rounds), b.Schema.Len(), rows)
		if !reflect.DeepEqual(resp.Kept, want) {
			t.Errorf("touched=%v: Kept = %08b, want %08b", touched, resp.Kept, want)
		}
	}
}

// TestEvalRoundsChainedStatesOnly: in a local chain only the last
// operator skips the echo; the reply leads with the earlier operators'
// states, and Proposition 1 acts on the whole chain.
func TestEvalRoundsChainedStatesOnly(t *testing.T) {
	e := loadedEngine(t)
	rounds := []transport.RoundSpec{
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
	}
	resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpEvalRounds, Base: shippedBase(t), Rounds: rounds})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	assertStatesOf(t, replyRel(t, resp), fusedReply(t, e, rounds), 2, []int{0, 1, 2})
	if want := []byte{0b1101}; !reflect.DeepEqual(resp.Kept, want) {
		t.Errorf("Kept = %08b, want %08b", resp.Kept, want)
	}
}
