package site

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

func flowRel(rows ...[3]int64) *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
	r := relation.New(s)
	for _, t := range rows {
		r.MustAppend(value.NewInt(t[0]), value.NewInt(t[1]), value.NewInt(t[2]))
	}
	return r
}

var testFlow = [][3]int64{
	{1, 10, 100}, {1, 10, 300}, {2, 10, 50}, {1, 20, 500},
}

func loadedEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine("s1")
	e.Load("flow", flowRel(testFlow...))
	return e
}

func TestPingAndUnknownOp(t *testing.T) {
	e := loadedEngine(t)
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpPing}); resp.Error() != nil {
		t.Error(resp.Error())
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.Op(99)}); resp.Error() == nil {
		t.Error("unknown op accepted")
	}
}

func TestLoadDropInfo(t *testing.T) {
	e := NewEngine("s1")
	rel := flowRel(testFlow...)
	resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "f", Data: rel})
	if resp.Error() != nil || resp.RowCount != 4 {
		t.Fatalf("load: %v, count %d", resp.Error(), resp.RowCount)
	}
	resp = e.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "F"}) // case-insensitive
	if resp.Error() != nil || resp.RowCount != 4 {
		t.Fatalf("info: %v", resp.Error())
	}
	// Op 5, the retired drop, is an unknown op and removes nothing.
	resp = e.Handle(context.Background(), &transport.Request{Op: 5, Rel: "f"})
	if resp.Error() == nil || !strings.Contains(resp.Err, "unknown op 5") {
		t.Errorf("op 5 answered %+v; want an unknown-op refusal", resp)
	}
	resp = e.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "f"})
	if resp.Error() != nil || resp.RowCount != 4 {
		t.Errorf("info after op 5: %v, count %d; want the relation still stored", resp.Error(), resp.RowCount)
	}
	// Bad loads.
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "x"}); resp.Error() == nil {
		t.Error("load without payload accepted")
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Data: rel}); resp.Error() == nil {
		t.Error("load without name accepted")
	}
}

func TestEvalBase(t *testing.T) {
	e := loadedEngine(t)
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if replyRel(t, resp).Len() != 3 {
		t.Errorf("base rows = %d, want 3", replyRel(t, resp).Len())
	}
	if resp.ComputeNs < 0 {
		t.Error("no compute time")
	}
	// With filter.
	resp = e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes >= 300",
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if replyRel(t, resp).Len() != 1 {
		t.Errorf("filtered base rows = %d", replyRel(t, resp).Len())
	}
	// Errors.
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpEvalRounds, Detail: "none", BaseCols: []string{"x"}}); resp.Error() == nil {
		t.Error("missing detail accepted")
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"}, BaseWhere: "(("}); resp.Error() == nil {
		t.Error("bad filter accepted")
	}
}

func roundSpec(touched, finalize bool) transport.RoundSpec {
	return transport.RoundSpec{
		Detail:  "flow",
		Aggs:    [][]string{{"count(*) AS cnt1", "sum(F.NumBytes) AS sum1"}},
		Thetas:  []string{"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS"},
		Touched: touched, Finalize: finalize,
	}
}

func TestEvalRoundsShippedBase(t *testing.T) {
	e := loadedEngine(t)
	b, err := gmdj.EvalBase(flowRel(testFlow...), gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Base: b,
		Rounds: []transport.RoundSpec{roundSpec(false, false)},
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	// A shipped base is not echoed: the coordinator holds it already.
	h := replyRel(t, resp)
	if got := h.Schema.Names(); !reflect.DeepEqual(got, []string{"cnt1__p0", "sum1__p0"}) {
		t.Errorf("reply columns %v, want the states alone", got)
	}
	if h.Len() != 3 {
		t.Errorf("rows = %d", h.Len())
	}
}

func TestEvalRoundsFusedBase(t *testing.T) {
	e := loadedEngine(t)
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
		Rounds:   []transport.RoundSpec{roundSpec(false, false)},
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if replyRel(t, resp).Len() != 3 {
		t.Errorf("fused rows = %d", replyRel(t, resp).Len())
	}
}

// chainedRequest is a fused two-round chain: round 2's θ reads the
// aggregates round 1 finalized locally.
func chainedRequest() *transport.Request {
	return &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
		Rounds: []transport.RoundSpec{
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
		},
	}
}

func TestEvalRoundsChained(t *testing.T) {
	e := loadedEngine(t)
	resp := e.Handle(context.Background(), chainedRequest())
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	h := replyRel(t, resp)
	// Finalized columns stripped, prims of both rounds present; the
	// touched counter is local-only and never shipped.
	for _, col := range []string{"cnt1__p0", "sum1__p0", "cnt2__p0"} {
		if _, ok := h.Schema.Lookup(col); !ok {
			t.Errorf("missing %s in %s", col, h.Schema)
		}
	}
	for _, col := range []string{"cnt1", "sum1", "cnt2", gmdj.TouchedCol} {
		if _, ok := h.Schema.Lookup(col); ok {
			t.Errorf("column %s not stripped", col)
		}
	}
	// Local chain: group (1,10) has cnt1=2 (rows 100,300), avg=200,
	// cnt2 = #{300} = 1.
	h.SortBy("SourceAS", "DestAS")
	c2, _ := h.Schema.MustLookup("cnt2__p0")
	if h.Rows[0][c2].Int() != 1 {
		t.Errorf("chained cnt2 = %v, want 1\n%s", h.Rows[0][c2], h)
	}
}

// cancelAfterChecks reports itself cancelled from its n-th Err call on: a
// deterministic stand-in for a caller that hangs up while the engine is
// between two local steps.
type cancelAfterChecks struct {
	context.Context
	n      int32
	checks atomic.Int32
}

func (c *cancelAfterChecks) Err() error {
	if c.checks.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestEvalRoundsCancelledBetweenRounds: a caller that cancels between two
// chained rounds stops the chain before the next round starts, with
// context.Canceled in the error chain. The request context must reach
// evalRounds for this: under context.Background() the chain runs to the
// end once the handler's entry check has passed.
func TestEvalRoundsCancelledBetweenRounds(t *testing.T) {
	e := loadedEngine(t)
	for n := int32(1); n <= 8; n++ {
		_, err := e.handle(&cancelAfterChecks{Context: context.Background(), n: n}, chainedRequest(), nil)
		if err == nil {
			t.Fatalf("chain completed with the context cancelled from check %d on", n)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("check %d: err = %v, want context.Canceled in the chain", n, err)
		}
		if strings.HasPrefix(err.Error(), "round 2: ") {
			return
		}
	}
	t.Fatal("cancellation never stopped the chain between rounds 1 and 2")
}

func TestEvalRoundsTouchedFilter(t *testing.T) {
	e := loadedEngine(t)
	// Shipped base contains a foreign group (9,9) this site never matches.
	b, err := gmdj.EvalBase(flowRel(testFlow...), gmdj.BaseDef{Cols: []string{"SourceAS", "DestAS"}})
	if err != nil {
		t.Fatal(err)
	}
	b.MustAppend(value.NewInt(9), value.NewInt(9))
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Base: b,
		Rounds: []transport.RoundSpec{roundSpec(true, false)},
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if replyRel(t, resp).Len() != 3 || !reflect.DeepEqual(resp.Kept, []byte{0b0111}) {
		t.Errorf("touched filter kept %d rows, Kept %08b; want 3, the first three", replyRel(t, resp).Len(), resp.Kept)
	}
}

func TestEvalRoundsErrors(t *testing.T) {
	e := loadedEngine(t)
	cases := []*transport.Request{
		{Op: transport.OpEvalRounds}, // no rounds
		{Op: transport.OpEvalRounds, Rounds: []transport.RoundSpec{roundSpec(false, false)}}, // no base
		{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"},
			Rounds: []transport.RoundSpec{{Detail: "missing", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"TRUE"}}}},
		{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"},
			Rounds: []transport.RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"((bad"}}}},
		{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"},
			Rounds: []transport.RoundSpec{{Detail: "flow", Aggs: [][]string{{"nope(*) AS c"}}, Thetas: []string{"TRUE"}}}},
		{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"},
			Rounds: []transport.RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}, {"count(*) AS d"}}, Thetas: []string{"TRUE"}}}},
	}
	for i, req := range cases {
		if resp := e.Handle(context.Background(), req); resp.Error() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGeneratorRegistry(t *testing.T) {
	kind := fmt.Sprintf("test-gen-%d", len(generators))
	RegisterGenerator(kind, func(spec *transport.GenSpec) (*relation.Relation, error) {
		if spec.Params["fail"] == 1 {
			return nil, fmt.Errorf("boom")
		}
		return flowRel(testFlow...), nil
	})
	e := NewEngine("s1")
	resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate, Gen: &transport.GenSpec{Kind: kind, Rel: "g"}})
	if resp.Error() != nil || resp.RowCount != 4 {
		t.Fatalf("generate: %v", resp.Error())
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "g"}); resp.Error() != nil || resp.RowCount != 4 {
		t.Errorf("relInfo g: %v, %d rows", resp.Error(), resp.RowCount)
	}
	// Default name = kind.
	resp = e.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate, Gen: &transport.GenSpec{Kind: kind}})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: kind}); resp.Error() != nil {
		t.Error(resp.Error())
	}
	// Failure paths.
	resp = e.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate, Gen: &transport.GenSpec{Kind: kind, Params: map[string]int64{"fail": 1}}})
	if resp.Error() == nil || !strings.Contains(resp.Error().Error(), "boom") {
		t.Errorf("generator failure not surfaced: %v", resp.Error())
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate, Gen: &transport.GenSpec{Kind: "unregistered"}}); resp.Error() == nil {
		t.Error("unknown generator accepted")
	}
	if resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate}); resp.Error() == nil {
		t.Error("missing GenSpec accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterGenerator(kind, nil)
}

// TestShortRowRefused: a relation with a row narrower than its schema is
// refused at load, not left to panic the site on its first query. A
// generator returning one fails OpGenerate with the refusal, and an
// in-process Load stores it for every later request.
func TestShortRowRefused(t *testing.T) {
	short := func() *relation.Relation {
		r := flowRel(testFlow...)
		r.Rows[1] = r.Rows[1][:1]
		return r
	}
	const want = "site s1: relation short: relation: row 1 has 1 values, schema (SourceAS:INT, DestAS:INT, NumBytes:INT) has 3 columns"
	kind := fmt.Sprintf("test-short-%d", len(generators))
	RegisterGenerator(kind, func(*transport.GenSpec) (*relation.Relation, error) { return short(), nil })
	e := NewEngine("s1")
	ctx := context.Background()
	if resp := e.Handle(ctx, &transport.Request{Op: transport.OpGenerate, Gen: &transport.GenSpec{Kind: kind, Rel: "short"}}); resp.Err != "generate: "+want {
		t.Fatalf("generate: Err %q, want %q", resp.Err, "generate: "+want)
	}
	e.Load("short", short())
	for _, req := range []*transport.Request{
		{Op: transport.OpRelInfo, Rel: "short"},
		{Op: transport.OpEvalRounds, Detail: "short", BaseCols: []string{"SourceAS"}},
	} {
		if resp := e.Handle(ctx, req); resp.Err != req.Op.String()+": "+want {
			t.Errorf("%s after Load: Err %q, want %q", req.Op, resp.Err, want)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/site.snap"

	e := loadedEngine(t)
	e.Load("extra", flowRel([3]int64{9, 9, 9}))
	if err := e.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	fresh := NewEngine("s2")
	if err := fresh.Restore(path); err != nil {
		t.Fatal(err)
	}
	names := fresh.RelationNames()
	if len(names) != 2 {
		t.Fatalf("restored relations: %v", names)
	}
	info := fresh.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "flow"})
	if info.Error() != nil || info.RowCount != 4 {
		t.Errorf("restored flow: %v, %d rows", info.Error(), info.RowCount)
	}
	// Restored engine answers queries identically.
	resp := fresh.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"},
	})
	if resp.Error() != nil || replyRel(t, resp).Len() != 2 {
		t.Errorf("restored eval: %v, %d rows", resp.Error(), replyRel(t, resp).Len())
	}
}

func TestRestoreErrors(t *testing.T) {
	e := NewEngine("s1")
	if err := e.Restore("/nonexistent/path"); err == nil {
		t.Error("restore of missing file accepted")
	}
	dir := t.TempDir()
	bad := dir + "/bad.snap"
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(bad); err == nil {
		t.Error("restore of garbage accepted")
	}
	// Snapshot into a nonexistent directory fails cleanly.
	if err := e.Snapshot("/nonexistent/dir/x.snap"); err == nil {
		t.Error("snapshot into missing dir accepted")
	}
}

// v1Snapshot mirrors the snapshot file of format 1, whose relations were
// gob rows (v1Relation).
type v1Snapshot struct {
	Magic  string
	SiteID string
	Rels   map[string]*v1Relation
}

type v1Relation struct {
	Schema *struct{ Cols []relation.Column }
	Rows   []relation.Row
}

// TestRestoreRefusesV1Snapshot: a format-1 snapshot is refused whole, by an
// error naming its path, and the engine keeps the relations it had. So is
// the format-2 golden, which held each relation's frame in a gob stream.
func TestRestoreRefusesV1Snapshot(t *testing.T) {
	flow := flowRel(testFlow...)
	old := v1Snapshot{Magic: "skalla-site-snapshot-v1", SiteID: "s1", Rels: map[string]*v1Relation{
		"other": {Schema: &struct{ Cols []relation.Column }{flow.Schema.Cols}, Rows: flow.Rows},
	}}
	path := t.TempDir() + "/v1.snap"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&old); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e := loadedEngine(t)
	for _, path := range []string{path, "testdata/site0-v2.snap"} {
		if err := e.Restore(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a skalla-site-snapshot-v3 file") {
			t.Errorf("restoring %s: %v, want an error naming it and the format", path, err)
		}
		if names := e.RelationNames(); len(names) != 1 || names[0] != "flow" {
			t.Errorf("after the refused restore the engine holds %v, want [flow]", names)
		}
	}
}
