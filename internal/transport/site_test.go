package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// shedHandler answers OpPing and sheds every OpDrop with CodeOverloaded.
type shedHandler struct{}

func (shedHandler) Handle(ctx context.Context, req *Request) *Response {
	if req.Op == OpDrop {
		return &Response{Err: "overloaded", Code: CodeOverloaded}
	}
	return &Response{}
}

// shedSite builds the served stack of one in-process shedding site and
// hands out n views of it.
func shedSite(t *testing.T, id string, o *obs.Obs, bp Backpressure, n int) (*Site, []Client) {
	t.Helper()
	s, err := NewSite(SiteSpec{ID: id, Replicas: []Replica{{Handler: shedHandler{}}}, Obs: o, Backpressure: bp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	views := make([]Client, n)
	for i := range views {
		if views[i], err = s.Client(); err != nil {
			t.Fatal(err)
		}
	}
	return s, views
}

func TestSiteGateAIMD(t *testing.T) {
	o := obs.New()
	g := NewSiteGate("s0", 8, o)
	ctx := context.Background()

	// Two sheds halve twice: 8 → 4 → 2.
	for i := 0; i < 2; i++ {
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		g.Release(true)
	}
	if got := g.Window(); got != 2 {
		t.Fatalf("window = %d after 2 sheds, want 2", got)
	}
	if got := o.Metrics.CounterValue("sched.site_backoffs"); got != 2 {
		t.Errorf("site_backoffs = %d, want 2", got)
	}

	// Successes reopen additively: a full window of successes adds one.
	for g.Window() < 8 {
		before := g.Window()
		for i := 0; i < before; i++ {
			if err := g.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			g.Release(false)
		}
		if got := g.Window(); got != before+1 {
			t.Fatalf("window = %d after %d successes at window %d, want %d", got, before, before, before+1)
		}
	}
}

func TestSiteGateBlocksAtWindow(t *testing.T) {
	g := NewSiteGate("s0", 2, nil)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire err = %v, want deadline exceeded", err)
	}
	g.Release(false)
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestWrapClientsSharedGateBackoff(t *testing.T) {
	o := obs.New()
	// Two executions each get their own view of the same site.
	s0, views := shedSite(t, "s0", o, Backpressure{SiteInflight: 8}, 2)
	a, b := views[0], views[1]
	s1, _ := shedSite(t, "s1", o, Backpressure{SiteInflight: 8}, 1)
	ctx := context.Background()

	// Execution A sees a shed; the shared window halves.
	resp, err := a.Call(ctx, &Request{Op: OpDrop})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Shed() {
		t.Fatal("expected shed response")
	}
	if got := s0.gate.Window(); got != 4 {
		t.Fatalf("shared window = %d after shed, want 4", got)
	}

	// Execution B inherits the backoff on the same site…
	if _, err := b.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	// …and a different site is untouched.
	if got := s1.gate.Window(); got != 8 {
		t.Fatalf("unrelated site window = %d, want 8", got)
	}
}

// TestSiteGateAIMDStress hammers one gate from many goroutines mixing
// shed and clean releases; run under -race it checks the AIMD window
// bookkeeping (window, streak, inUse, wake rotation) for data races and
// asserts the window never leaves [1, max] and the gate stays usable.
func TestSiteGateAIMDStress(t *testing.T) {
	testutil.CheckGoroutines(t)
	const max = 8
	g := NewSiteGate("s0", max, obs.New())
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := g.Acquire(ctx); err != nil {
					t.Error(err)
					return
				}
				if win := g.Window(); win < 1 || win > max {
					t.Errorf("window = %d, want 1..%d", win, max)
				}
				// Deterministic shed mix: roughly one release in seven
				// halves the window, the rest feed the success streak.
				g.Release((w+i)%7 == 0)
			}
		}(w)
	}
	wg.Wait()

	if win := g.Window(); win < 1 || win > max {
		t.Fatalf("final window = %d, want 1..%d", win, max)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("gate unusable after stress: %v", err)
	}
	g.Release(false)
}

// TestWrapClientsBreakerFailsFast: with per-site breakers enabled, a run
// of sheds on one site opens its breaker, every execution's view of that
// site is refused locally with the typed error, and the open breaker is
// visible through the site — while other sites stay unaffected.
func TestWrapClientsBreakerFailsFast(t *testing.T) {
	o := obs.New()
	bp := Backpressure{SiteInflight: 8, BreakerFailures: 2, BreakerCooldown: time.Hour}
	s0, views := shedSite(t, "s0", o, bp, 2)
	s1, healthy := shedSite(t, "s1", o, bp, 1)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		resp, err := views[0].Call(ctx, &Request{Op: OpDrop})
		if err != nil || !resp.Shed() {
			t.Fatalf("shed call %d: %v / %+v", i, err, resp)
		}
	}
	if st := s0.Breaker().State(); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// A second execution shares the breaker: its call is refused before
	// reaching the site.
	if _, err := views[1].Call(ctx, &Request{Op: OpPing}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	// The healthy site keeps serving.
	if _, err := healthy[0].Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("healthy site refused: %v", err)
	}
	if s1.Breaker() == nil {
		t.Error("healthy site has no breaker")
	}

	// Breakers default off: a zero BreakerFailures site never trips.
	off, c := shedSite(t, "s0", nil, Backpressure{SiteInflight: 8}, 1)
	for i := 0; i < 5; i++ {
		if _, err := c[0].Call(ctx, &Request{Op: OpDrop}); err != nil {
			t.Fatal(err)
		}
	}
	if off.Breaker() != nil {
		t.Error("breaker present with breakers disabled")
	}
}

// TestStackShapes pins the assembled stack of every shape a non-test
// caller builds: NewLocalCluster (in-process, loopback TCP), Connect and
// ConnectWith (replicas failing over or hedged), each again as
// NewQueryService serves it with and without breakers, and the tail
// experiment's chaos primary with and without its clean replica.
func TestStackShapes(t *testing.T) {
	h := shedHandler{}
	chaos := func(cl Client) *Chaos { return NewChaos(cl, 1) }
	remote := DefaultResilience
	hedged := remote
	hedged.Hedge = true
	served := DefaultBackpressure
	guarded := served
	guarded.BreakerFailures = 5

	shapes := []struct {
		name     string
		replicas []Replica
		res      Resilience
		want     string // as the cluster's own client
		served   string // as NewQueryService serves it
	}{
		{"in-process", []Replica{{Handler: h}}, Resilience{},
			"local",
			"gate(4) > pool(4) > local"},
		{"loopback TCP", []Replica{{Addr: "127.0.0.1:7001"}}, Resilience{},
			"tcp 127.0.0.1:7001",
			"gate(4) > pool(4) > tcp 127.0.0.1:7001"},
		{"Connect", []Replica{{Addr: "10.0.0.1:7001"}}, remote,
			"retry(3,100ms) > tcp 10.0.0.1:7001",
			"gate(4) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"replicas", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, remote,
			"retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001",
			"gate(4) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"replicas hedged", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, hedged,
			"hedge(adaptive) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001",
			"gate(4) > hedge(adaptive) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"hedge without a second replica", []Replica{{Addr: "10.0.0.1:7001"}}, hedged,
			"retry(3,100ms) > tcp 10.0.0.1:7001",
			"gate(4) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"tail unhedged", []Replica{{Handler: h, Chaos: chaos}}, Resilience{},
			"chaos(local)",
			"gate(4) > pool(4) > chaos(local)"},
		{"tail hedged", []Replica{{Handler: h, Chaos: chaos}, {Handler: h}},
			Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond},
			"hedge(5ms) > chaos(local)|local",
			"gate(4) > hedge(5ms) > pool(4) > chaos(local)|local"},
	}
	for _, sh := range shapes {
		for _, l := range []struct {
			bp   Backpressure
			want string
		}{
			{Backpressure{}, sh.want},
			{served, sh.served},
			{guarded, "breaker(5,1s) > " + sh.served},
		} {
			s, err := NewSite(SiteSpec{ID: "site0", Replicas: sh.replicas, Resilience: sh.res, Backpressure: l.bp})
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
	if _, err := cl.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.earned != 0 {
		t.Errorf("bare stack earned %d into the budget, want 0", budget.earned)
	}
}
