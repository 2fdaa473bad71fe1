package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
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
