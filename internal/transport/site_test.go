package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestStackShapes pins the assembled stack of every shape a non-test
// caller builds: NewLocalCluster (in-process, loopback TCP), Connect and
// ConnectWith (replicas failing over or hedged), and the tail
// experiment's chaos primary with and without its clean replica. Every
// shape is pooled; the replica layer prints over two replicas only.
func TestStackShapes(t *testing.T) {
	h := newEchoHandler()
	chaos := NewChaos()
	remote := DefaultResilience
	hedged := remote
	hedged.Hedge = true

	for _, sh := range []struct {
		name     string
		replicas []Replica
		res      Resilience
		want     string
	}{
		{"in-process", []Replica{{Handler: h}}, Resilience{},
			"pool(4) > local"},
		{"loopback TCP", []Replica{{Addr: "127.0.0.1:7001"}}, Resilience{},
			"pool(4) > tcp 127.0.0.1:7001"},
		{"Connect", []Replica{{Addr: "10.0.0.1:7001"}}, remote,
			"pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"replicas", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, remote,
			"failover > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"replicas without retry", []Replica{{Addr: "a:1"}, {Addr: "b:1"}}, Resilience{},
			"failover > pool(4) > tcp a:1|b:1"},
		{"replicas hedged", []Replica{{Addr: "10.0.0.1:7001"}, {Addr: "10.0.1.1:7001"}}, hedged,
			"hedge(adaptive) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001"},
		{"hedge without a second replica", []Replica{{Addr: "10.0.0.1:7001"}}, hedged,
			"pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001"},
		{"tail unhedged", []Replica{{Handler: h, Chaos: chaos}}, Resilience{},
			"pool(4) > chaos(local)"},
		{"tail hedged", []Replica{{Handler: h, Chaos: chaos}, {Handler: h}},
			Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond},
			"hedge(5ms) > pool(4) > chaos(local)|local"},
	} {
		s, err := NewSite(SiteSpec{ID: "site0", Replicas: sh.replicas, Resilience: sh.res})
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if got := s.String(); got != sh.want {
			t.Errorf("%s:\n got %s\nwant %s", sh.name, got, sh.want)
		}
	}

	// A site without replicas is refused.
	if _, err := NewSite(SiteSpec{ID: "s"}); err == nil {
		t.Error("no replicas: accepted")
	}
}

// TestStackBudgetOwner: whatever the shape, the budget follows one rule.
// The replica layer earns once per call; the primary replica fails every
// exchange, so each shape spends one token on its same-replica retry and
// then fails over to the clean replica for free: one call earned, one
// retry spent, whether hedged or not. The balance shows both: 0.25 earned
// and 1 spent are the only counts (of at most four each) that move 5
// tokens to 4.25.
func TestStackBudgetOwner(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, tc := range []struct {
		name  string
		hedge bool
	}{
		{"failover", false},
		{"hedged", true},
	} {
		budget := halfBudget(t)
		s, err := NewSite(SiteSpec{
			ID:         "s0",
			Replicas:   []Replica{{Handler: newEchoHandler(), Chaos: failing(OpEvalRounds)}, {Handler: newEchoHandler()}},
			Resilience: Resilience{Attempts: 2, Hedge: tc.hedge, HedgeDelay: time.Hour},
			Budget:     budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := s.Client()
		if _, err := cl.Call(context.Background(), &Request{Op: OpEvalRounds}); err != nil {
			t.Fatalf("%s (%s): %v", tc.name, s, err)
		}
		cl.Close()
		s.Close()
		if got := tokens(budget); got != 4.25 {
			t.Errorf("%s (%s): budget holds %v tokens, want 4.25 (5 + one call earned - one retry spent)", tc.name, s, got)
		}
	}

	// A bare stack earns once per call too, and spends nothing.
	budget := halfBudget(t)
	s, err := NewSite(SiteSpec{ID: "s0", Replicas: []Replica{{Handler: newEchoHandler()}}, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Client()
	defer cl.Close()
	if _, err := cl.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if got := tokens(budget); got != 5.25 {
		t.Errorf("bare stack: budget holds %v tokens, want 5.25 (5 + one call earned)", got)
	}
}

// halfBudget returns a budget earning 0.25 a call that holds 5 of its 10
// tokens, so an earned call and a spent retry both move its balance.
func halfBudget(t *testing.T) *RetryBudget {
	b := NewRetryBudget(0.25, 10, nil)
	for i := 0; i < 5; i++ {
		if !b.Take() {
			t.Fatal("a full budget denied a take")
		}
	}
	return b
}

// tokens reads a budget's balance.
func tokens(b *RetryBudget) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// answerHandler answers every op with RowCount n, so a reply names the
// replica that gave it, and counts the loads it was sent.
type answerHandler struct {
	n     int
	loads atomic.Int64
}

func (h *answerHandler) Handle(ctx context.Context, req *Request) *Response {
	if req.Op == OpLoad {
		h.loads.Add(1)
	}
	return &Response{RowCount: h.n}
}

// failing is a replica's fault schedule failing every call of ops.
func failing(ops ...Op) *Chaos {
	ch := NewChaos()
	for _, op := range ops {
		injectN(ch, op, 1000, Fault{Err: ErrInjected})
	}
	return ch
}

// TestReplicaFailoverEveryShape: a two-replica site whose primary fails
// every call answers every op from the healthy secondary, hedged or not,
// with the retry budget unlimited or exhausted — a failover spends no
// token. A load is placement: it reaches both replicas and answers with
// the primary's reply; a replica failing it fails the op, named, and the
// other replica still gets it.
func TestReplicaFailoverEveryShape(t *testing.T) {
	testutil.CheckGoroutines(t)
	site := func(hedge, exhausted bool, failOps ...Op) (Client, *answerHandler, *answerHandler) {
		var budget *RetryBudget
		if exhausted {
			budget = NewRetryBudget(0.001, 1, nil)
			budget.Take()
		}
		primary, secondary := &answerHandler{n: 1}, &answerHandler{n: 2}
		s, err := NewSite(SiteSpec{
			ID:         "s0",
			Replicas:   []Replica{{Handler: primary, Chaos: failing(failOps...)}, {Handler: secondary}},
			Resilience: Resilience{Attempts: 2, Hedge: hedge, HedgeDelay: time.Hour},
			Budget:     budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl := s.Client()
		t.Cleanup(func() { cl.Close() })
		return cl, primary, secondary
	}
	load := func() *Request { return &Request{Op: OpLoad, Rel: "r", Data: sampleRelation(3)} }
	for _, op := range []Op{OpPing, OpRelInfo, OpEvalRounds, OpLoad} {
		for _, hedge := range []bool{false, true} {
			for _, exhausted := range []bool{false, true} {
				name := fmt.Sprintf("%s hedge=%t exhausted=%t", op, hedge, exhausted)
				cl, primary, secondary := site(hedge, exhausted, OpPing, OpRelInfo, OpEvalRounds)
				req, want := &Request{Op: op}, 2
				if op == OpLoad {
					req, want = load(), 1
				}
				resp, err := cl.Call(context.Background(), req)
				if err != nil || resp.Error() != nil || resp.RowCount != want {
					t.Errorf("%s: %v / %+v, want the answer of replica %d", name, err, resp, want-1)
				}
				if op == OpLoad && (primary.loads.Load() != 1 || secondary.loads.Load() != 1) {
					t.Errorf("%s: loads reached the replicas %d and %d times, want once each",
						name, primary.loads.Load(), secondary.loads.Load())
				}
			}
		}
	}

	cl, _, secondary := site(false, false, OpLoad)
	_, err := cl.Call(context.Background(), load())
	if !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "replica 0") {
		t.Errorf("load failing at the primary: err = %v, want the injected fault naming replica 0", err)
	}
	if got := secondary.loads.Load(); got != 1 {
		t.Errorf("a load failing at the primary reached the secondary %d times, want once", got)
	}
}

// TestReplicaStickyPerSite: the current replica is the site's, not a
// connection's. After one failover a second pooled connection and the
// site's liveness probe go straight to the secondary, never redialing the
// dead primary.
func TestReplicaStickyPerSite(t *testing.T) {
	testutil.CheckGoroutines(t)
	held := &opBlockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	primary := failing(OpPing, OpEvalRounds)
	s, err := NewSite(SiteSpec{
		ID: "s0",
		Replicas: []Replica{
			{Handler: newEchoHandler(), Chaos: primary},
			{Handler: held},
		},
		Resilience: Resilience{Attempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := s.Client()
	defer cl.Close()
	ping := &Request{Op: OpPing}
	if _, err := cl.Call(context.Background(), ping); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got := primary.Calls(); got != 2 {
		t.Fatalf("primary called %d times by the first call, want 2 (one per attempt)", got)
	}
	// Hold the secondary's one pooled connection, so the next call needs
	// a second one.
	evalDone := make(chan error, 1)
	go func() {
		_, err := cl.Call(context.Background(), &Request{Op: OpEvalRounds})
		evalDone <- err
	}()
	defer func() {
		close(held.release)
		if err := <-evalDone; err != nil {
			t.Errorf("held call: %v", err)
		}
	}()
	<-held.entered // the held call borrowed the secondary's pooled connection
	if _, err := cl.Call(context.Background(), ping); err != nil {
		t.Fatalf("second pooled connection: %v", err)
	}
	if err := s.Ping(context.Background()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := primary.Calls(); got != 2 {
		t.Errorf("primary called %d times, want 2: a later connection rediscovered the dead primary", got)
	}
}

// TestClosedReplicaSetStaysPut: a call on a closed replicated client fails
// with ErrClosed at once. Closing is the caller's doing, not a replica's
// fault: the call does not fail over, counts no failover, logs no event
// and leaves the site's current replica where it was, so the site's other
// clients still start at the first replica.
func TestClosedReplicaSetStaysPut(t *testing.T) {
	testutil.CheckGoroutines(t)
	sink := obs.New()
	h := newEchoHandler()
	s, err := NewSite(SiteSpec{ID: "site0", Replicas: []Replica{{Handler: h}, {Handler: h}}, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	closed := s.Client()
	closed.Close()
	for _, op := range []Op{OpPing, OpEvalRounds} {
		if _, err := closed.Call(context.Background(), &Request{Op: op}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed client: %v, want ErrClosed", op, err)
		}
		if n := sink.Metrics.CounterValue("transport.failovers"); n != 0 {
			t.Errorf("after %s: transport.failovers = %d, want 0", op, n)
		}
		if cur := s.state.current(); cur != 0 {
			t.Errorf("after %s: current replica moved to %d", op, cur)
		}
	}
	for _, e := range sink.Events.Events() {
		t.Errorf("event %s: %s", e.Kind, e.Msg)
	}
	open := s.Client()
	defer open.Close()
	if _, err := open.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseEndsCallsInFlight: closing a site client ends a call in flight
// on it, over one replica and over two. The call has no deadline and hangs
// at its replica; Close closes the connection under it, so the call fails
// with ErrClosed, Close returns, and no goroutine is left behind.
func TestCloseEndsCallsInFlight(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d replicas", n), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			ch := NewChaos()
			replicas := []Replica{{Handler: newEchoHandler(), Chaos: ch}}
			if n == 2 {
				replicas = append(replicas, Replica{Handler: newEchoHandler()})
			}
			s, err := NewSite(SiteSpec{ID: "site0", Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			cl := s.Client()
			ch.Inject(OpPing, Fault{Hang: true})
			called := make(chan error, 1)
			go func() {
				_, err := cl.Call(context.Background(), &Request{Op: OpPing})
				called <- err
			}()
			for ch.Calls() == 0 {
				time.Sleep(time.Millisecond)
			}
			closed := make(chan error, 1)
			go func() { closed <- cl.Close() }()
			timeout := time.After(time.Second)
			for _, c := range []struct {
				what string
				ch   chan error
			}{{"the call", called}, {"Close", closed}} {
				select {
				case err := <-c.ch:
					if c.what == "the call" && !errors.Is(err, ErrClosed) {
						t.Errorf("the call ended with %v, want ErrClosed", err)
					}
				case <-timeout:
					t.Fatalf("%s has not returned 1s after Close", c.what)
				}
			}
		})
	}
}
