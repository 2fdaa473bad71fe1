package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
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
		leafClients = append(leafClients, transport.NewLocalClient(eng.ID(), eng, transport.CostModel{}))
	}

	var relayClients []transport.Client
	for off := 0; off < leaves; off += fanout {
		end := off + fanout
		if end > leaves {
			end = leaves
		}
		relay, err := NewRelay(leafClients[off:end], off, leaves)
		if err != nil {
			t.Fatal(err)
		}
		relayClients = append(relayClients,
			transport.NewLocalClient(fmt.Sprintf("relay%d", off/fanout), relay, transport.CostModel{}))
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
	var flatRecv, treeRecv int64
	for _, r := range flatStats.Rounds {
		flatRecv += r.GroupsReceived
	}
	for _, r := range treeStats.Rounds {
		treeRecv += r.GroupsReceived
	}
	// 4 leaves → 2 relays: upstream group rows should halve.
	if treeRecv*3 > flatRecv*2 {
		t.Errorf("relay pre-merge weak: tree received %d rows, flat %d", treeRecv, flatRecv)
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

func TestRelayGenerate(t *testing.T) {
	leaves := 4
	var leafClients []transport.Client
	engines := make([]*site.Engine, leaves)
	for i := 0; i < leaves; i++ {
		engines[i] = site.NewEngine(fmt.Sprintf("leaf%d", i))
		leafClients = append(leafClients, transport.NewLocalClient(engines[i].ID(), engines[i], transport.CostModel{}))
	}
	var relays []transport.Client
	for off := 0; off < leaves; off += 2 {
		relay, err := NewRelay(leafClients[off:off+2], off, leaves)
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, transport.NewLocalClient(fmt.Sprintf("relay%d", off/2), relay, transport.CostModel{}))
	}

	cfg := tpcr.Config{Rows: 2000, Customers: 50, Seed: 3}
	total := 0
	for i, rc := range relays {
		resp, err := rc.Call(context.Background(), &transport.Request{
			Op:  transport.OpGenerate,
			Gen: &transport.GenSpec{Kind: "tpcr", Rel: "tpcr", Params: tpcr.GenParams(cfg), Site: i, NumSites: len(relays)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Error(); err != nil {
			t.Fatal(err)
		}
		total += resp.RowCount
	}
	if want := tpcr.Generate(cfg).Len(); total != want {
		t.Errorf("tree generated %d rows, want %d", total, want)
	}
	// Every leaf holds a disjoint nation set.
	nk, _ := tpcr.Schema().MustLookup("NationKey")
	seen := map[int64]string{}
	for _, eng := range engines {
		rel, err := eng.Relation("tpcr")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rel.Rows {
			if prev, dup := seen[row[nk].I]; dup && prev != eng.ID() {
				t.Fatalf("nation %d at both %s and %s", row[nk].I, prev, eng.ID())
			}
			seen[row[nk].I] = eng.ID()
		}
	}
}

func TestRelayErrors(t *testing.T) {
	if _, err := NewRelay(nil, 0, 0); err == nil {
		t.Error("relay without children accepted")
	}
	eng := site.NewEngine("leaf")
	child := transport.NewLocalClient("leaf", eng, transport.CostModel{})
	if _, err := NewRelay([]transport.Client{child}, 2, 2); err == nil {
		t.Error("bad leaf range accepted")
	}
	relay, err := NewRelay([]transport.Client{child}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpLoad, Rel: "x", Data: relation.New(flowSchema())}); resp.Error() == nil {
		t.Error("load through relay accepted")
	}
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpGenerate}); resp.Error() == nil {
		t.Error("generate without spec accepted")
	}
	// Child errors surface.
	if resp := relay.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "missing"}); resp.Error() == nil {
		t.Error("child error not propagated")
	}
}

// TestRelayPassThroughWithoutKeys: a fused round request without merge
// keys degrades to a pass-through union at the relay (still one message
// upstream): every child's groups, each child's own.
func TestRelayPassThroughWithoutKeys(t *testing.T) {
	rows := testRows(100, 41)
	parts := []*relation.Relation{relation.New(flowSchema()), relation.New(flowSchema())}
	for i, row := range rows {
		parts[i%2].Rows = append(parts[i%2].Rows, row)
	}
	var children []transport.Client
	groups := 0
	for i, part := range parts {
		eng := site.NewEngine(fmt.Sprintf("leaf%d", i))
		eng.Load("flow", part)
		children = append(children, transport.NewLocalClient(eng.ID(), eng, transport.CostModel{}))
		b, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: []string{"SourceAS"}})
		if err != nil {
			t.Fatal(err)
		}
		groups += b.Len()
	}
	relay, err := NewRelay(children, 0, 2)
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
		// No Keys: pass-through union of both children's fragments.
	})
	if resp.Error() != nil {
		t.Fatal(resp.Error())
	}
	if resp.Rel.Len() != groups {
		t.Errorf("pass-through rows = %d, want %d", resp.Rel.Len(), groups)
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
// tree-mode query must reach the leaves through the relay tier. This
// guards the context threading in Relay.fanout — with child calls made
// under context.Background() (the pre-refactor behavior flagged by the
// ctxflow analyzer) the leaves would block until their own timeout and
// this test fails.
func TestRelayCancellationPropagates(t *testing.T) {
	leaves := []*ctxProbeHandler{newCtxProbeHandler(), newCtxProbeHandler()}
	var children []transport.Client
	for i, h := range leaves {
		children = append(children, transport.NewLocalClient(fmt.Sprintf("leaf%d", i), h, transport.CostModel{}))
	}
	relay, err := NewRelay(children, 0, len(children))
	if err != nil {
		t.Fatal(err)
	}
	root := transport.NewLocalClient("relay0", relay, transport.CostModel{})

	ctx, cancel := context.WithCancel(context.Background())
	callDone := make(chan error, 1)
	go func() {
		_, err := root.Call(ctx, &transport.Request{Op: transport.OpPing})
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

func TestCoordinatorNumSitesAndStatsGroups(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(50, 42), 3, false)
	if coord.NumSites() != 3 {
		t.Errorf("NumSites = %d", coord.NumSites())
	}
	_, stats, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Groups() <= 0 {
		t.Error("Groups() accounting empty")
	}
}
