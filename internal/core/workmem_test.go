package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// streamOf delivers replies as the sites site0, site1, ... answering in
// that order.
func streamOf(replies []*transport.Response) <-chan streamItem {
	stream := make(chan streamItem, len(replies))
	for s, resp := range replies {
		stream <- streamItem{SiteRound: SiteRound{Site: fmt.Sprintf("site%d", s)}, client: s, resp: resp}
	}
	close(stream)
	return stream
}

// rearrive delivers stream's arrivals, last first when reverse, each
// renamed site0 when shared.
func rearrive(stream <-chan streamItem, reverse, shared bool) <-chan streamItem {
	var items []streamItem
	for it := range stream {
		if shared {
			it.Site = "site0"
		}
		items = append(items, it)
	}
	if reverse {
		slices.Reverse(items)
	}
	out := make(chan streamItem, len(items))
	for _, it := range items {
		out <- it
	}
	close(out)
	return out
}

// siteName is a client that is only a site's name, in a coordinator that
// merges a stream its test supplies.
type siteName string

func (s siteName) SiteID() string { return string(s) }
func (s siteName) Close() error   { return nil }
func (s siteName) Call(context.Context, *transport.Request) (*transport.Response, error) {
	return nil, fmt.Errorf("site %s called", s)
}

// namedClients names n sites as streamOf does.
func namedClients(n int) []transport.Client {
	clients := make([]transport.Client, n)
	for s := range clients {
		clients[s] = siteName(fmt.Sprintf("site%d", s))
	}
	return clients
}

// TestTierAllocsDoNotScaleWithGroups: the fragment a relay tier sends up is
// carved from one backing, not allocated group by group.
func TestTierAllocsDoNotScaleWithGroups(t *testing.T) {
	allocs := func(groups int) float64 {
		x, step, ships, replies := synchronizeFixture(groups, 2)
		m, _, err := (&Coordinator{}).synchronize(x, streamOf(replies), step, ships, &RoundStats{}, true)
		if err != nil {
			t.Fatal(err)
		}
		rel, _, err := m.tier()
		if err != nil || rel.Len() != groups {
			t.Fatalf("%d groups: tier emitted %v rows, err %v", groups, rel, err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, _, err := m.tier(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const few, many = 100, 2000
	if small, large := allocs(few), allocs(many); large-small > 10 {
		t.Errorf("tier allocations scale with groups: %.0f at %d groups, %.0f at %d", small, few, large, many)
	}
}

// TestWarmSkewedMergeAllocs: a keyed merge reserves no less than its
// warmed memory holds, so when the smallest of four fragments of unequal
// size arrives first it grows no slab lane, row list or key index: it
// allocates as often as when the largest arrives first.
func TestWarmSkewedMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops merge memory at random")
	}
	// A GC empties the pool, and the merge after it allocates its memory.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	step, replies := fusedFixture(false, 46, 48, 50, 56)
	replies = received(t, nil, replies)
	allocs := func(order ...int) float64 {
		run := func() {
			stream := make(chan streamItem, len(order))
			for _, s := range order {
				stream <- streamItem{SiteRound: SiteRound{Site: fmt.Sprintf("site%d", s)}, client: s, resp: replies[s]}
			}
			close(stream)
			if x, err := synchronizeStream(nil, step, nil, len(replies), stream); err != nil || x.Len() != 200 {
				t.Fatalf("arrivals %v: merged %v, err %v", order, x, err)
			}
		}
		run()
		// Many runs, so that an allocation of another goroutine's is not
		// counted as a run's.
		return testing.AllocsPerRun(100, run)
	}
	if smallest, largest := allocs(0, 1, 2, 3), allocs(3, 2, 1, 0); smallest != largest {
		t.Errorf("a warmed merge allocates %.0f times when the smallest fragment arrives first, %.0f when the largest does",
			smallest, largest)
	}
}

// lineNumberShift is a site whose base round declares LineNumber a STRING
// when the query groups on it (kindShift), and answers every other query
// as its engine does.
type lineNumberShift struct{ transport.Handler }

func (l lineNumberShift) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if slices.Equal(req.BaseCols, []string{"LineNumber"}) {
		return kindShift{l.Handler}.Handle(ctx, req)
	}
	return l.Handler.Handle(ctx, req)
}

// TestPooledMergesInvisible: the coordinator's merges draw their slab, key
// index, row list and position buffers from one pool, and no execution
// can tell. A mix of executions, run by one coordinator in order and then
// from concurrent goroutines, answers as gmdj.EvalQuery does and moves,
// execution by execution, the bytes its first run moved with a pool the
// GC had emptied. Each execution leaves its merges dirty in its own way
// for the next: keyed merges of 2 000 groups before ones of 50, extrema
// over STRINGs with NULLs, sketches, an INT sum that a FLOAT switches,
// rounds that fail mid-merge (a site-disjoint claim the data violates, a
// fragment whose columns disagree with the others'), a resume from a
// checkpoint, and relays' tiers under a root.
func TestPooledMergesInvisible(t *testing.T) {
	ctx := context.Background()
	cfg := tpcr.Config{Rows: 8000, Customers: 2000, LowCardGroups: 50, Seed: 5}
	parts := fig5Parts(t, cfg)
	whole := relation.New(parts[0].Schema)
	for _, p := range parts {
		whole.Rows = append(whole.Rows, p.Rows...)
	}
	coord, cat := wireCluster(t, cfg, parts, false, func(i int, h transport.Handler) transport.Handler {
		if i == 3 {
			return lineNumberShift{h}
		}
		return h
	})
	tree, treeCat := wireCluster(t, cfg, parts, true, sameEngine)
	lie := catalog.New("site0", "site1", "site2", "site3")
	for i, flag := range []string{"A", "N", "R", "Z"} {
		if err := lie.SetDomain(fmt.Sprintf("site%d", i), "ReturnFlag", expr.DomainSet(value.NewString(flag))); err != nil {
			t.Fatal(err)
		}
	}
	schema, err := coord.DetailSchema(ctx, "tpcr")
	if err != nil {
		t.Fatal(err)
	}
	plan := func(cat *catalog.Catalog, opts Options, q gmdj.Query) *Plan {
		t.Helper()
		p, err := Egil{Catalog: cat, Options: opts}.BuildPlan(q, "tpcr", schema)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grouped := func(attr string, aggs ...string) gmdj.Query {
		var specs []agg.Spec
		for _, a := range aggs {
			specs = append(specs, agg.MustParseSpec(a))
		}
		return gmdj.Query{Base: gmdj.BaseDef{Cols: []string{attr}}, MDs: []gmdj.MD{{Aggs: [][]agg.Spec{specs},
			Thetas: []expr.Expr{expr.MustParse(fmt.Sprintf("F.%s = B.%s", attr, attr))}}}}
	}
	strs := grouped("CustName", "min(CASE WHEN F.Quantity > 25 THEN F.ShipMode END) AS smin", "max(F.ShipMode) AS smax",
		"countd(F.ShipMode) AS d", "sum(CASE WHEN F.Quantity > 40 THEN F.Discount ELSE F.Quantity END) AS mixed")
	claimed := plan(lie, DefaultOptions, grouped("ReturnFlag", "count(*) AS n", "sum(F.Quantity) AS q"))
	if !claimed.Steps[0].disjoint() {
		t.Fatalf("the lying catalog's plan claims nothing:\n%s", claimed.Explain())
	}
	// The resumed execution starts from the checkpoint of its first two
	// rounds.
	resumable := plan(cat, Options{}, fig5Query("CustGroup"))
	store := &heldCheckpoints{}
	first := coord.Derive(coord.clients...)
	first.Checkpoints = store
	if _, _, err := first.Execute(ctx, resumable); err != nil || len(store.saved) < 3 {
		t.Fatalf("%d checkpoints saved, err %v", len(store.saved), err)
	}
	resume := store.saved[1]

	type execution struct {
		name  string
		q     gmdj.Query // what it answers; nil MDs when it fails
		fails string     // what a failing execution's error says
		run   func() (*relation.Relation, *ExecStats, error)
	}
	on := func(c *Coordinator, p *Plan) func() (*relation.Relation, *ExecStats, error) {
		return func() (*relation.Relation, *ExecStats, error) { return c.Execute(ctx, p) }
	}
	mix := []execution{
		{name: "2 000 groups, fused", q: fig5Query("CustName"), run: on(coord, plan(cat, DefaultOptions, fig5Query("CustName")))},
		{name: "50 groups, shipped", q: fig5Query("CustGroup"), run: on(coord, plan(cat, Options{}, fig5Query("CustGroup")))},
		{name: "extrema, sketches, a switched sum, fused", q: strs, run: on(coord, plan(cat, DefaultOptions, strs))},
		{name: "violated claim", fails: "not site-disjoint", run: on(coord, claimed)},
		{name: "extrema, sketches, a switched sum, shipped", q: strs, run: on(coord, plan(cat, Options{}, strs))},
		{name: "disagreeing fragment", fails: "differ from", run: on(coord, plan(cat, Options{}, grouped("LineNumber", "count(*) AS n")))},
		{name: "resumed", q: fig5Query("CustGroup"), run: func() (*relation.Relation, *ExecStats, error) {
			c := coord.Derive(coord.clients...)
			c.Checkpoints = &heldCheckpoints{resume: resume}
			return c.Execute(ctx, resumable)
		}},
		{name: "relays, fused", q: fig5Query("CustName"), run: on(tree, plan(treeCat, DefaultOptions, fig5Query("CustName")))},
		{name: "relays, shipped", q: strs, run: on(tree, plan(treeCat, Options{}, strs))},
		{name: "50 groups, fused", q: fig5Query("CustGroup"), run: on(coord, plan(cat, DefaultOptions, fig5Query("CustGroup")))},
	}
	// An execution's wire is its rounds' traffic and X's frame, which is
	// what the next round would ship.
	wire := func(e execution) ([]byte, error) {
		x, stats, err := e.run()
		if e.fails != "" {
			if err == nil || !errors.Is(err, transport.ErrInconsistent) || !strings.Contains(err.Error(), e.fails) {
				return nil, fmt.Errorf("err = %v, want a failed merge saying %q", err, e.fails)
			}
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		var b []byte
		for _, r := range stats.Rounds {
			b = fmt.Appendf(b, "%s %d %d %d %d\n", r.Name, r.GroupsShipped, r.GroupsReceived, r.BytesToSites, r.BytesFromSites)
		}
		return relation.AppendFrame(b, x), nil
	}
	want := make([][]byte, len(mix))
	for i, e := range mix {
		runtime.GC() // twice: the pool keeps what it held for one GC
		runtime.GC()
		if want[i], err = wire(e); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if e.fails != "" {
			continue
		}
		x, _, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		central, err := gmdj.EvalQuery(whole, e.q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedFrame(t, x, e.q.Keys()), sortedFrame(t, central, e.q.Keys()); !bytes.Equal(got, want) {
			t.Fatalf("%s: the answer (%d groups) differs from the centralized one (%d groups)", e.name, x.Len(), central.Len())
		}
	}
	check := func(report func(string, ...any), pass, i int) {
		got, err := wire(mix[i])
		switch {
		case err != nil:
			report("pass %d, %s: %v", pass, mix[i].name, err)
		case !bytes.Equal(got, want[i]):
			report("pass %d, %s: the execution moved other bytes than its first run (%d vs %d)", pass, mix[i].name, len(got), len(want[i]))
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

// heldCheckpoints keeps every checkpoint as the coordinator hands it over,
// X included, without copying, so any write into an X the coordinator
// has checkpointed shows; Load resumes from resume.
type heldCheckpoints struct {
	saved  []*Checkpoint
	frames [][]byte // each saved X's frame when it was saved
	resume *Checkpoint
}

func (s *heldCheckpoints) Save(cp *Checkpoint) error {
	s.saved = append(s.saved, cp)
	s.frames = append(s.frames, relation.AppendFrame(nil, cp.X))
	return nil
}

func (s *heldCheckpoints) Load(string) (*Checkpoint, error) { return s.resume, nil }
func (s *heldCheckpoints) Clear(string) error               { return nil }

// assertOwnRows checks the rule for rows that leave the coordinator: each
// has len == cap, so nothing appended to it lands in memory another X sees.
func assertOwnRows(t *testing.T, label string, x *relation.Relation) {
	t.Helper()
	for i, row := range x.Rows {
		if len(row) != cap(row) {
			t.Fatalf("%s: row %d has len %d, cap %d", label, i, len(row), cap(row))
		}
	}
}

// TestExecutedXNeverAliases: a multi-round execution appends each round's
// columns to X's rows in place, so the rules that keep that safe are
// pinned here. The rows Execute returns have len == cap; a result stays
// byte for byte what it was after a second execution of the plan, after
// a resume that re-runs rounds over different site data, and after a
// caller appends to another result's rows; and every checkpointed X is
// unchanged by all that followed it. It holds for X carved by a keyed
// base round and by a site-disjoint fused first step.
func TestExecutedXNeverAliases(t *testing.T) {
	t.Run("keyed", func(t *testing.T) {
		executedXNeverAliases(t, example1(), func(*catalog.Catalog) Egil { return Egil{Catalog: newTestCatalog(3)} })
	})
	// Step 1 fuses MD1 on the partition attribute SourceAS; MD2 reads no
	// partition attribute and ships X.
	disjoint := example1()
	disjoint.MDs[1].Thetas = []expr.Expr{expr.MustParse("F.DestAS = B.DestAS AND F.NumBytes >= B.sum1 / B.cnt1")}
	t.Run("disjoint", func(t *testing.T) {
		executedXNeverAliases(t, disjoint, func(cat *catalog.Catalog) Egil {
			return Egil{Catalog: cat, Options: Options{SyncReduce: true}}
		})
	})
}

func executedXNeverAliases(t *testing.T, q gmdj.Query, egil func(*catalog.Catalog) Egil) {
	rows := testRows(240, 7)
	engines := make([]*site.Engine, 3)
	clients := make([]transport.Client, len(engines))
	load := func(shift int64) {
		for i, e := range engines {
			part := relation.New(flowSchema())
			for _, row := range rows {
				if int(row[0].Int())%len(engines) == i {
					part.Rows = append(part.Rows, flowRow(row[0].Int(), row[1].Int(), row[2].Int()+shift))
				}
			}
			e.Load("flow", part)
		}
	}
	cat := newTestCatalog(len(engines))
	for i := range engines {
		engines[i] = site.NewEngine(fmt.Sprintf("site%d", i))
		clients[i] = localClient(t, engines[i].ID(), engines[i])
		var vals []value.V
		for v := int64(i); v < 12; v += int64(len(engines)) {
			vals = append(vals, value.NewInt(v))
		}
		if err := cat.SetDomain(engines[i].ID(), "SourceAS", expr.DomainSet(vals...)); err != nil {
			t.Fatal(err)
		}
	}
	load(0)
	coord := NewCoordinator(clients...)
	plan := mustPlan(t, coord, q, egil(cat))
	if plan.Rounds() != 3 && !plan.Steps[0].disjoint() {
		t.Fatalf("plan has %d rounds and no site-disjoint step:\n%s", plan.Rounds(), plan.Explain())
	}
	store := &heldCheckpoints{}
	coord.Checkpoints = store
	execute := func(label string) *relation.Relation {
		t.Helper()
		x, _, err := coord.Execute(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertOwnRows(t, label, x)
		return x
	}
	unchanged := func(label string, x *relation.Relation, want []byte) {
		t.Helper()
		if !bytes.Equal(relation.AppendFrame(nil, x), want) {
			t.Fatalf("%s changed it", label)
		}
	}
	// Fragments arrive in any order, and so do the groups of X: executions
	// compare sorted.
	sorted := func(x *relation.Relation) []byte {
		t.Helper()
		c := x.Clone()
		if err := c.SortBy("SourceAS", "DestAS"); err != nil {
			t.Fatal(err)
		}
		return relation.AppendFrame(nil, c)
	}

	first := execute("first execution")
	want := relation.AppendFrame(nil, first)
	if len(store.saved) != plan.Rounds() {
		t.Fatalf("%d checkpoints saved, want %d", len(store.saved), plan.Rounds())
	}

	second := execute("second execution")
	unchanged("a second execution of the plan", first, want)
	if !bytes.Equal(sorted(second), sorted(first)) {
		t.Fatal("a second execution of the plan computed another result")
	}

	// Resume after the first round with every NumBytes shifted: the re-run
	// rounds compute other aggregates, and the checkpointed X of the first
	// round shares its backing with the first result.
	load(1000)
	store.resume = store.saved[0]
	resumed := execute("resumed execution")
	unchanged("a resume that re-ran the later rounds", first, want)
	if bytes.Equal(sorted(resumed), sorted(first)) {
		t.Fatal("the resumed execution over shifted data reproduced the first result")
	}

	wantResumed := relation.AppendFrame(nil, resumed)
	for i := range first.Rows {
		first.Rows[i] = append(first.Rows[i], value.NewInt(-1))
	}
	unchanged("appending to the first result's rows", resumed, wantResumed)
	for i, cp := range store.saved {
		unchanged(fmt.Sprintf("what followed checkpoint %d", i), cp.X, store.frames[i])
	}
}

// TestResultRowsFull: under every optimization combination, each row of X
// is carved with room for exactly the columns the plan's steps append, so
// the rows Execute returns have len == cap.
func TestResultRowsFull(t *testing.T) {
	for _, partitioned := range []bool{true, false} {
		coord, cat, _ := cluster(t, testRows(300, 3), 3, partitioned)
		for _, opts := range allOptions() {
			x, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opts), err)
			}
			assertOwnRows(t, optLabel(opts), x)
		}
	}
}
