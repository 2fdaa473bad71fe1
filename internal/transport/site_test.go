package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestStackShapes pins the assembled stack of every shape a non-test
// caller builds: NewLocalCluster (in-process, loopback TCP), Connect and
// ConnectWith (replicas failing over or hedged), each again as
// NewQueryService serves it, and the tail experiment's chaos primary with
// and without its clean replica.
func TestStackShapes(t *testing.T) {
	h := newEchoHandler()
	chaos := func(cl Client) *Chaos { return NewChaos(cl, 1) }
	remote := DefaultResilience
	hedged := remote
	hedged.Hedge = true

	shapes := []struct {
		name     string
		replicas []Replica
		res      Resilience
		want     string // as the cluster's own client
		served   string // as NewQueryService serves it
	}{
		{"in-process", []Replica{{Handler: h}}, Resilience{},
			"local",
			"pool(4) > local"},
		{"loopback TCP", []Replica{{Addr: "127.0.0.1:7001"}}, Resilience{},
			"tcp 127.0.0.1:7001",
			"pool(4) > tcp 127.0.0.1:7001"},
		{"Connect", []Replica{{Addr: "10.0.0.1:7001"}}, remote,
			"retry(3,100ms) > tcp 10.0.0.1:7001",
			"pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"replicas", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, remote,
			"retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001",
			"pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"replicas hedged", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, hedged,
			"hedge(adaptive) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001",
			"hedge(adaptive) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"hedge without a second replica", []Replica{{Addr: "10.0.0.1:7001"}}, hedged,
			"retry(3,100ms) > tcp 10.0.0.1:7001",
			"pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"tail unhedged", []Replica{{Handler: h, Chaos: chaos}}, Resilience{},
			"chaos(local)",
			"pool(4) > chaos(local)"},
		{"tail hedged", []Replica{{Handler: h, Chaos: chaos}, {Handler: h}},
			Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond},
			"hedge(5ms) > chaos(local)|local",
			"hedge(5ms) > pool(4) > chaos(local)|local"},
	}
	for _, sh := range shapes {
		for _, l := range []struct {
			inflight int
			want     string
		}{
			{0, sh.want},
			{4, sh.served},
		} {
			s, err := NewSite(SiteSpec{ID: "site0", Replicas: sh.replicas, Resilience: sh.res, SiteInflight: l.inflight})
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			if got := s.String(); got != l.want {
				t.Errorf("%s:\n got %s\nwant %s", sh.name, got, l.want)
			}
		}
	}

	// Orders the package cannot produce are refused, not reinterpreted.
	for name, spec := range map[string]SiteSpec{
		"no replicas":            {ID: "s"},
		"failover without retry": {ID: "s", Replicas: []Replica{{Addr: "a:1"}, {Addr: "b:1"}}},
	} {
		if _, err := NewSite(spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStackBudgetOwner: whatever the shape, exactly one layer earns into
// and spends from the shared retry budget. The primary replica fails every
// exchange, so each shape burns its per-endpoint attempts and then moves
// to the clean replica: one primary call earned, one speculative send
// charged — a hedged site never also charges its inner retry layers, and
// pooling changes nothing.
func TestStackBudgetOwner(t *testing.T) {
	testutil.CheckGoroutines(t)
	failing := func(cl Client) *Chaos {
		ch := NewChaos(cl, 1)
		ch.FailNext(OpEvalRounds, 1000)
		return ch
	}
	for _, tc := range []struct {
		name   string
		hedge  bool
		pooled bool
	}{
		{"failover", false, false},
		{"failover pooled", false, true},
		{"hedged", true, false},
		{"hedged pooled", true, true},
	} {
		budget := NewRetryBudget(0.25, 10, nil)
		spec := SiteSpec{
			ID:         "s0",
			Replicas:   []Replica{{Handler: newEchoHandler(), Chaos: failing}, {Handler: newEchoHandler()}},
			Resilience: Resilience{Attempts: 2, Hedge: tc.hedge, HedgeDelay: time.Hour},
			Budget:     budget,
		}
		if tc.pooled {
			spec.SiteInflight = 2
		}
		s, err := NewSite(spec)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := s.Client()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Call(context.Background(), &Request{Op: OpEvalRounds}); err != nil {
			t.Fatalf("%s (%s): %v", tc.name, s, err)
		}
		cl.Close()
		s.Close()
		budget.mu.Lock()
		earned := budget.earned
		budget.mu.Unlock()
		if taken, _ := budget.Counts(); earned != 1 || taken != 1 {
			t.Errorf("%s (%s): budget earned %d / spent %d, want 1 / 1", tc.name, s, earned, taken)
		}
	}

	// A stack with neither a retry layer nor a hedger has no budget owner.
	budget := NewRetryBudget(0.25, 10, nil)
	s, err := NewSite(SiteSpec{ID: "s0", Replicas: []Replica{{Handler: newEchoHandler()}}, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := s.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.earned != 0 {
		t.Errorf("bare stack earned %d into the budget, want 0", budget.earned)
	}
}
