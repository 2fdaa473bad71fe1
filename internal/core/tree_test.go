package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

func init() {
	// The skalla facade registers generators for applications; this test
	// binary drives the site engines directly.
	site.RegisterGenerator("tpcr", tpcr.Generator)
}

// treeCluster builds leaves engines grouped under relays of the given
// fanout, returning the root coordinator and the flat coordinator over
// the same engines for comparison.
func treeCluster(t *testing.T, rows []relation.Row, leaves, fanout int) (tree, flat *Coordinator) {
	t.Helper()
	parts := make([]*relation.Relation, leaves)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	for i, row := range rows {
		parts[i%leaves].Rows = append(parts[i%leaves].Rows, row)
	}
	var leafClients []transport.Client
	for i := 0; i < leaves; i++ {
		eng := site.NewEngine(fmt.Sprintf("leaf%d", i))
		eng.Load("flow", parts[i])
		leafClients = append(leafClients, localClient(t, eng.ID(), eng))
	}

	var relayClients []transport.Client
	for off := 0; off < leaves; off += fanout {
		end := off + fanout
		if end > leaves {
			end = leaves
		}
		relay, err := NewRelay(leafClients[off:end])
		if err != nil {
			t.Fatal(err)
		}
		relayClients = append(relayClients,
			localClient(t, fmt.Sprintf("relay%d", off/fanout), relay))
	}
	return NewCoordinator(relayClients...), NewCoordinator(leafClients...)
}

func TestRelayTreeMatchesFlat(t *testing.T) {
	rows := testRows(400, 11)
	q := example1()
	tree, flat := treeCluster(t, rows, 4, 2)
	egil := Egil{Catalog: catalog.New("relay0", "relay1"), Options: Options{GroupReduceSites: true}}

	want, _, _, err := flat.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New()})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _, err := tree.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "tree vs flat", got, want, q.Keys())
	if stats.Bytes() <= 0 {
		t.Error("no traffic accounted at root")
	}
}

// TestRelayPreMergeShrinksUpstream: with round-robin data every leaf
// holds every group, so a relay's merged fragment is ~1/fanout the size
// of its children's combined fragments.
func TestRelayPreMergeShrinksUpstream(t *testing.T) {
	rows := testRows(600, 12)
	q := example1()
	tree, flat := treeCluster(t, rows, 4, 2)

	_, flatStats, _, err := flat.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New()})
	if err != nil {
		t.Fatal(err)
	}
	_, treeStats, _, err := tree.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New()})
	if err != nil {
		t.Fatal(err)
	}
	var flatRecv, treeRecv, flatShipped, treeShipped int64
	for _, r := range flatStats.Rounds {
		flatRecv += r.GroupsReceived
		flatShipped += r.GroupsShipped
	}
	for _, r := range treeStats.Rounds {
		treeRecv += r.GroupsReceived
		treeShipped += r.GroupsShipped
	}
	// 4 leaves → 2 relays: upstream group rows should halve.
	if treeRecv*3 > flatRecv*2 {
		t.Errorf("relay pre-merge weak: tree received %d rows, flat %d", treeRecv, flatRecv)
	}
	// The root ships X to 2 relays, not to 4 leaves.
	if treeShipped >= flatShipped {
		t.Errorf("tree root shipped %d rows, flat %d: want fewer", treeShipped, flatShipped)
	}
}

func TestRelayChainedRounds(t *testing.T) {
	// Sync-reduced chains also merge correctly through a relay (prims of
	// all MDs in one fragment).
	rows := testRows(300, 13)
	q := example1()
	tree, flat := treeCluster(t, rows, 4, 2)

	want, _, _, err := flat.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New()})
	if err != nil {
		t.Fatal(err)
	}
	// Force a fused+chained single round through relays: partition
	// knowledge is absent, so only Prop 2 fusion applies; that's enough
	// to exercise fused-step merging at the relay.
	got, _, plan, err := tree.Run(context.Background(), q, "flow", Egil{Catalog: catalog.New(), Options: Options{SyncReduce: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Steps[0].FuseBase {
		t.Fatalf("expected fused first step:\n%s", plan.Explain())
	}
	assertSameRelation(t, "tree chained", got, want, q.Keys())
}

func TestRelayErrors(t *testing.T) {
	if _, err := NewRelay(nil); err == nil {
		t.Error("relay without children accepted")
	}
	eng := site.NewEngine("leaf")
	child := localClient(t, "leaf", eng)
	relay, err := NewRelay([]transport.Client{child})
	if err != nil {
		t.Fatal(err)
	}
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "x", Data: relation.New(flowSchema())}); resp.Error() == nil {
		t.Error("load through relay accepted")
	}
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate}); resp.Error() == nil {
		t.Error("generate through relay accepted")
	}
	// Child errors surface.
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "missing"}); resp.Error() == nil {
		t.Error("child error not propagated")
	}
	// The retired ops 3 and 5 are as unknown to a relay as to a site.
	for _, op := range []transport.Op{3, 5} {
		resp := relay.Handle(context.Background(), &transport.Request{Op: op, Rel: "x"})
		if want := fmt.Sprintf("relay: unknown op %d", op); resp.Err != want {
			t.Errorf("op %d through relay answered %+v; want %q", op, resp, want)
		}
	}
}

// TestRelayKeepsChildErrorCode: a relay's reply carries its child's error
// code, so a limit refusal stays ErrOverloaded and a draining child stays
// ErrDraining at the relay's parent.
func TestRelayKeepsChildErrorCode(t *testing.T) {
	limited := site.NewEngine("leaf0")
	flows := relation.New(flowSchema())
	flows.Rows = testRows(40, 7)
	limited.Load("flow", flows)
	limited.SetLimits(site.Limits{MaxResultRows: 1})
	draining := handlerFunc(func(context.Context, *transport.Request) *transport.Response {
		return &transport.Response{Err: "leaf draining", Code: transport.CodeDraining}
	})
	base := &transport.Request{Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"}}
	for _, tc := range []struct {
		leaf transport.Handler
		code int
		want error
	}{
		{limited, transport.CodeOverloaded, transport.ErrOverloaded},
		{draining, transport.CodeDraining, transport.ErrDraining},
	} {
		leaf := localClient(t, "leaf0", tc.leaf)
		if resp, err := leaf.Call(context.Background(), base); err != nil || resp.Code != tc.code {
			t.Fatalf("leaf answered code %d (%v), want %d", resp.Code, err, tc.code)
		}
		relay, err := NewRelay([]transport.Client{leaf})
		if err != nil {
			t.Fatal(err)
		}
		resp := relay.Handle(context.Background(), base)
		if resp.Code != tc.code || !errors.Is(resp.Error(), tc.want) {
			t.Errorf("relay answered code %d, error %v; want code %d matching %v", resp.Code, resp.Error(), tc.code, tc.want)
		}
		leaf.Close()
	}
}

// TestRelayFusedMergesOnBaseCols: a fused round request merges its
// children's keyed replies on BaseCols, which are K: one row per distinct
// SourceAS across both children, with their counts summed.
func TestRelayFusedMergesOnBaseCols(t *testing.T) {
	rows := testRows(100, 41)
	parts := []*relation.Relation{relation.New(flowSchema()), relation.New(flowSchema())}
	want := map[int64]int64{}
	for i, row := range rows {
		parts[i%2].Rows = append(parts[i%2].Rows, row)
		want[row[0].Int()]++
	}
	var children []transport.Client
	for i, part := range parts {
		eng := site.NewEngine(fmt.Sprintf("leaf%d", i))
		eng.Load("flow", part)
		children = append(children, localClient(t, eng.ID(), eng))
	}
	relay, err := NewRelay(children)
	if err != nil {
		t.Fatal(err)
	}
	resp := relay.Handle(context.Background(), &transport.Request{
		Op:       transport.OpEvalRounds,
		Detail:   "flow",
		BaseCols: []string{"SourceAS"},
		Rounds: []transport.RoundSpec{{
			Detail: "flow",
			Aggs:   [][]string{{"count(*) AS c"}},
			Thetas: []string{"F.SourceAS = B.SourceAS"},
		}},
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	rel := replyRel(t, resp)
	if got := rel.Schema.String(); got != "(SourceAS:INT, c__p0:INT)" {
		t.Errorf("reply schema %s", got)
	}
	if rel.Len() != len(want) {
		t.Errorf("reply has %d rows for %d distinct SourceAS", rel.Len(), len(want))
	}
	for _, row := range rel.Rows {
		if n := want[row[0].Int()]; row[1].Int() != n {
			t.Errorf("SourceAS %d: count %d, want %d", row[0].Int(), row[1].Int(), n)
		}
		delete(want, row[0].Int())
	}
}

// ctxProbeHandler blocks every request until its context is cancelled,
// recording whether cancellation ever reached it.
type ctxProbeHandler struct {
	started chan struct{} // closed when the request arrives
	saw     chan struct{} // closed when ctx.Done() fires
}

func newCtxProbeHandler() *ctxProbeHandler {
	return &ctxProbeHandler{started: make(chan struct{}), saw: make(chan struct{})}
}

func (h *ctxProbeHandler) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	close(h.started)
	select {
	case <-ctx.Done():
		close(h.saw)
		return &transport.Response{Err: ctx.Err().Error()}
	case <-time.After(10 * time.Second):
		return &transport.Response{Err: "leaf never saw cancellation"}
	}
}

// TestRelayCancellationPropagates: cancelling the root context of a
// tree-mode query must reach the leaves through the relay tier, on both of
// the relay's paths: the broadcast (ping) and the evaluation exchange over
// a shipped base. With child calls made under context.Background() — the
// pre-refactor behavior the ctxflow analyzer flags — the leaves would
// block until their own timeout and this test fails.
func TestRelayCancellationPropagates(t *testing.T) {
	base := relation.New(relation.MustSchema(relation.Column{Name: "SourceAS", Kind: value.KindInt}))
	base.MustAppend(value.NewInt(1))
	base.MustAppend(value.NewInt(2))
	for _, req := range []*transport.Request{
		{Op: transport.OpPing},
		{Op: transport.OpEvalRounds, Base: base, Rounds: []transport.RoundSpec{{
			Detail: "flow",
			Aggs:   [][]string{{"count(*) AS cnt"}},
			Thetas: []string{"F.SourceAS = B.SourceAS"},
		}}},
	} {
		t.Run(req.Op.String(), func(t *testing.T) { relayCancellationReachesLeaves(t, req) })
	}
}

func relayCancellationReachesLeaves(t *testing.T, req *transport.Request) {
	leaves := []*ctxProbeHandler{newCtxProbeHandler(), newCtxProbeHandler()}
	var children []transport.Client
	for i, h := range leaves {
		children = append(children, localClient(t, fmt.Sprintf("leaf%d", i), h))
	}
	relay, err := NewRelay(children)
	if err != nil {
		t.Fatal(err)
	}
	root := localClient(t, "relay0", relay)

	ctx, cancel := context.WithCancel(context.Background())
	callDone := make(chan error, 1)
	go func() {
		_, err := root.Call(ctx, req)
		callDone <- err
	}()

	// Wait until the request has fanned out to every leaf, then cancel.
	for i, h := range leaves {
		select {
		case <-h.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("leaf%d never received the request", i)
		}
	}
	cancel()

	// The root call aborts promptly...
	select {
	case err := <-callDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("root call error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("root call did not abort on cancellation")
	}
	// ...and, crucially, the cancellation reached every leaf through the
	// relay instead of leaving the subtree working on a discarded request.
	for i, h := range leaves {
		select {
		case <-h.saw:
		case <-time.After(5 * time.Second):
			t.Fatalf("leaf%d never observed cancellation: relay did not thread the request context", i)
		}
	}
}

// TestRelayFailsFast: a failing child cancels its siblings at once, as at
// the root: the relay answers with the child's error instead of waiting for
// its slowest sibling, and the sibling observes the cancellation.
func TestRelayFailsFast(t *testing.T) {
	probe := newCtxProbeHandler()
	failing := handlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
		<-probe.started // fail once the sibling is busy
		return &transport.Response{Err: "child0 down"}
	})
	relay, err := NewRelay([]transport.Client{
		localClient(t, "leaf0", failing),
		localClient(t, "leaf1", probe),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp := relay.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow", BaseCols: []string{"SourceAS"}})
	if err := resp.Error(); err == nil || !strings.Contains(err.Error(), "child0 down") {
		t.Fatalf("relay answered %v, want child0's error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("relay answered after %v: it waited for the sibling", d)
	}
	select {
	case <-probe.saw:
	case <-time.After(5 * time.Second):
		t.Fatal("sibling never observed cancellation")
	}
}

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(ctx context.Context, req *transport.Request) *transport.Response

func (f handlerFunc) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	return f(ctx, req)
}

// replyRel boxes the relation of a reply.
func replyRel(tb testing.TB, resp *transport.Response) *relation.Relation {
	tb.Helper()
	f, err := resp.Frame()
	if err != nil {
		tb.Fatalf("reply %+v: %v", resp, err)
	}
	return f.Relation()
}

// tierRecorder wraps the nodes of wireCluster's relay tree and records,
// for every request a relay handled, its reply and the exchanges its
// children had for it.
type tierRecorder struct {
	leaves  int
	mu      sync.Mutex
	current map[int]*tierExchange // by relay, while it handles a request
	done    []*tierExchange
}

// exchangeRec is one request a node handled and its reply.
type exchangeRec struct {
	req  *transport.Request
	resp *transport.Response
}

type tierExchange struct {
	exchangeRec
	children []exchangeRec
}

func (rec *tierRecorder) wrap(i int, h transport.Handler) transport.Handler {
	if i < rec.leaves {
		relay := i % 2 // leaves 0 and 2 under relay0, 1 and 3 under relay1
		return handlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
			rec.mu.Lock()
			ex := rec.current[relay]
			rec.mu.Unlock()
			resp := h.Handle(ctx, req)
			if ex == nil {
				return resp // a flat cluster's site
			}
			rec.mu.Lock()
			ex.children = append(ex.children, exchangeRec{req, resp})
			rec.mu.Unlock()
			return resp
		})
	}
	return handlerFunc(func(ctx context.Context, req *transport.Request) *transport.Response {
		ex := &tierExchange{exchangeRec: exchangeRec{req: req}}
		rec.mu.Lock()
		rec.current[i-rec.leaves] = ex
		rec.mu.Unlock()
		resp := h.Handle(ctx, req)
		rec.mu.Lock()
		ex.resp = resp
		rec.done = append(rec.done, ex)
		rec.mu.Unlock()
		return resp
	})
}

// keptBits expands a Response.Kept bitmap over n shipped rows; nil marks
// every row.
func keptBits(kept []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = kept == nil || kept[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// TestRelayReplyShape: across the two-tier half of the wire matrix, a
// relay answers every evaluation request in the shape its leaves answer
// it with — the same reply schema — and a states-only reply's Kept bitmap
// is the OR of its children's.
func TestRelayReplyShape(t *testing.T) {
	rec := &tierRecorder{leaves: 4, current: map[int]*tierExchange{}}
	wireMatrix(t, rec.wrap)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	evals, ored := 0, 0
	for _, ex := range rec.done {
		if ex.resp.Error() != nil || ex.req.Op != transport.OpEvalRounds {
			continue
		}
		if len(ex.children) != 2 {
			t.Fatalf("%s answered with %d children's replies", ex.req.Op, len(ex.children))
		}
		evals++
		var want []bool
		if ex.req.ShipsBase() {
			want = make([]bool, ex.req.Base.Len())
		}
		out := replyRel(t, ex.resp)
		for _, ch := range ex.children {
			if leaf := replyRel(t, ch.resp); !out.Schema.Equal(leaf.Schema) {
				t.Fatalf("%s round %d: relay replied %s, leaf %s", ex.req.Op, ex.req.Round, out.Schema, leaf.Schema)
			}
			if ch.resp.Kept != nil {
				ored++
			}
			for i, k := range keptBits(ch.resp.Kept, len(want)) {
				want[i] = want[i] || k
			}
		}
		if !ex.req.ShipsBase() {
			if ex.resp.Kept != nil {
				t.Errorf("keyed %s reply carries a Kept bitmap", ex.req.Op)
			}
			continue
		}
		got, rows := keptBits(ex.resp.Kept, len(want)), 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Kept bit %d = %v, want the OR of the children's, %v", i, got[i], want[i])
			}
			if got[i] {
				rows++
			}
		}
		if out.Len() != rows {
			t.Errorf("states-only reply has %d rows for %d kept groups", out.Len(), rows)
		}
	}
	if evals == 0 || ored == 0 {
		t.Errorf("matrix checked %d relay evaluations, %d children's Kept bitmaps; want both", evals, ored)
	}
}

func TestCoordinatorNumSitesAndStatsGroups(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(50, 42), 3, false)
	_, stats, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stats.Rounds[0].Responded()); got != 3 {
		t.Errorf("round 0 answered by %d sites, want 3", got)
	}
	if stats.Groups() <= 0 {
		t.Error("Groups() accounting empty")
	}
}
