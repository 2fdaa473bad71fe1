package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// replicaSetOf is a replica layer over replicas in preference order,
// failing over between them with no budget.
func replicaSetOf(o *obs.Obs, replicas ...Client) *ReplicaSet {
	return (&replicaState{obs: o}).replicaSet("s", replicas)
}

// errConnReset is the transport-level failure the test clients return.
var errConnReset = errors.New("connection reset")

// flakyClient fails its first failN calls at the transport level.
type flakyClient struct {
	id     string
	failN  int
	calls  int
	closed int
}

func (f *flakyClient) SiteID() string { return f.id }
func (f *flakyClient) Close() error   { f.closed++; return nil }

func (f *flakyClient) Call(ctx context.Context, req *Request) (*Response, error) {
	f.calls++
	charge(ctx, Delta{Sent: 10})
	if f.calls <= f.failN {
		return nil, errConnReset
	}
	charge(ctx, Delta{Recv: 20})
	if req.Op == OpRelInfo {
		return &Response{Err: "no such relation"}, nil
	}
	return &Response{RowCount: 1}, nil
}

func TestReconnectorRetries(t *testing.T) {
	inner := &flakyClient{id: "s", failN: 2}
	dials := 0
	o := obs.New()
	rc := newReconnector("s", func() (Client, error) {
		dials++
		return inner, nil
	}, 3, 0, nil, o)
	resp, d, err := Exchange(context.Background(), rc, &Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if inner.calls != 3 {
		t.Errorf("calls = %d, want 3", inner.calls)
	}
	if dials != 3 { // redial after each transport failure
		t.Errorf("dials = %d, want 3", dials)
	}
	// The call is charged only the successful attempt: the two failed
	// attempts' bytes are retry waste, not part of the logical exchange,
	// and must not inflate the coordinator's round byte accounting.
	if d.Sent != 10 || d.Recv != 20 {
		t.Errorf("exchange delta: sent=%d recv=%d, want sent=10 recv=20", d.Sent, d.Recv)
	}
	// The two re-sends do ride the delta, for the round to attribute.
	if d.Retries != 2 {
		t.Errorf("exchange retries = %d, want 2", d.Retries)
	}
	if got := o.Metrics.CounterValue("transport.retry_wasted_bytes"); got != 20 {
		t.Errorf("retry_wasted_bytes = %d, want 20 (2 failed attempts × 10 sent)", got)
	}
	if got := o.Metrics.CounterValue("transport.retries"); got != 2 {
		t.Errorf("transport.retries = %d, want 2", got)
	}
	if got := len(o.Events.ByKind(obs.EventRetry)); got != 2 {
		t.Errorf("retry events = %d, want 2", got)
	}
}

func TestReconnectorExhaustsAttempts(t *testing.T) {
	inner := &flakyClient{id: "s", failN: 99}
	rc := newReconnector("s", func() (Client, error) { return inner, nil }, 2, 0, nil, nil)
	_, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if err == nil {
		t.Fatal("expected failure after attempts exhausted")
	}
	// The last attempt's cause stays in the chain, so callers above the
	// reconnector can still classify the failure with errors.Is.
	if !errors.Is(err, errConnReset) {
		t.Errorf("err = %v, want the last attempt's cause in the chain", err)
	}
	if inner.calls != 2 {
		t.Errorf("calls = %d, want 2", inner.calls)
	}
}

func TestReconnectorDoesNotRetrySiteErrors(t *testing.T) {
	inner := &flakyClient{id: "s"}
	rc := newReconnector("s", func() (Client, error) { return inner, nil }, 3, 0, nil, nil)
	resp, err := rc.Call(context.Background(), &Request{Op: OpRelInfo, Rel: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error() == nil {
		t.Fatal("site error lost")
	}
	if inner.calls != 1 {
		t.Errorf("site-side error retried: %d calls", inner.calls)
	}
}

func TestReconnectorDialFailure(t *testing.T) {
	fails := 0
	rc := newReconnector("s", func() (Client, error) {
		fails++
		return nil, fmt.Errorf("refused")
	}, 2, 0, nil, nil)
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("dial failures should surface")
	}
	if fails != 2 {
		t.Errorf("dial attempts = %d", fails)
	}
	if err := rc.Close(); err != nil {
		t.Errorf("close without connection: %v", err)
	}
}

func TestReconnectorOverTCPRestart(t *testing.T) {
	// Start a server, connect, kill it, restart on the same address, and
	// verify the reconnector survives.
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReplicaTCP("s", []string{addr}, CostModel{}, 5, 0)
	defer rc.Close()
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewServer(newEchoHandler())
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("reconnect after restart: %v", err)
	}
}

// recordSleep returns a sleep func that records the requested delays
// without actually sleeping — injected virtual time for backoff tests.
func recordSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestReconnectorBackoffJitter(t *testing.T) {
	inner := &flakyClient{id: "s", failN: 99}
	base := 100 * time.Millisecond
	rc := newReconnector("s", func() (Client, error) { return inner, nil }, 6, base, nil, nil)
	var delays []time.Duration
	rc.sleep = recordSleep(&delays)
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("expected exhaustion")
	}
	if len(delays) != 5 { // one sleep before each retry after the first attempt
		t.Fatalf("slept %d times, want 5: %v", len(delays), delays)
	}
	for i, d := range delays {
		// Exponential window with full jitter in the upper half:
		// delay i is uniform in [base·2^i/2, base·2^i], capped.
		lo, hi := base<<uint(i)/2, base<<uint(i)
		if hi > rc.maxBackoff {
			hi = rc.maxBackoff
			lo = hi / 2
		}
		if d < lo || d > hi {
			t.Errorf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
	// Jitter must actually vary the delays relative to the deterministic
	// midpoint sequence.
	allMid := true
	for i, d := range delays {
		if d != base<<uint(i)*3/4 {
			allMid = false
		}
	}
	if allMid {
		t.Error("no jitter applied")
	}
	// Same site id, same seed, same sequence: backoff is reproducible.
	inner2 := &flakyClient{id: "s", failN: 99}
	rc2 := newReconnector("s", func() (Client, error) { return inner2, nil }, 6, base, nil, nil)
	var delays2 []time.Duration
	rc2.sleep = recordSleep(&delays2)
	rc2.Call(context.Background(), &Request{Op: OpPing})
	for i := range delays {
		if delays[i] != delays2[i] {
			t.Fatalf("same seed diverged: %v vs %v", delays, delays2)
		}
	}
}

func TestReconnectorBackoffCap(t *testing.T) {
	inner := &flakyClient{id: "s", failN: 99}
	rc := newReconnector("s", func() (Client, error) { return inner, nil }, 20, time.Second, nil, nil)
	rc.maxBackoff = 2 * time.Second
	var delays []time.Duration
	rc.sleep = recordSleep(&delays)
	rc.Call(context.Background(), &Request{Op: OpPing})
	for i, d := range delays {
		if d > 2*time.Second {
			t.Errorf("delay %d = %v exceeds cap", i, d)
		}
	}
}

func TestReplicaFailover(t *testing.T) {
	bad := &flakyClient{id: "a", failN: 99}
	good := &flakyClient{id: "b"}
	dials := [2]int{}
	rc := replicaSetOf(nil,
		newReconnector("s", func() (Client, error) { dials[0]++; return bad, nil }, 2, 0, nil, nil),
		newReconnector("s", func() (Client, error) { dials[1]++; return good, nil }, 2, 0, nil, nil),
	)
	resp, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	if resp.RowCount != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if bad.calls != 2 || good.calls != 1 {
		t.Errorf("calls: bad=%d good=%d, want 2/1", bad.calls, good.calls)
	}
	if cur := rc.current(); cur != 1 {
		t.Errorf("current replica = %d, want 1 (sticky failover)", cur)
	}
	// Subsequent calls go straight to the surviving replica over the
	// retained connection.
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if dials[0] != 2 || dials[1] != 1 {
		t.Errorf("dials = %v, want [2 1]", dials)
	}
	if bad.calls != 2 {
		t.Errorf("failed replica still being called: %d", bad.calls)
	}
}

func TestReplicaAllDown(t *testing.T) {
	a := &flakyClient{id: "a", failN: 99}
	b := &flakyClient{id: "b", failN: 99}
	rc := replicaSetOf(nil,
		newReconnector("s", func() (Client, error) { return a, nil }, 2, 0, nil, nil),
		newReconnector("s", func() (Client, error) { return b, nil }, 2, 0, nil, nil),
	)
	_, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if err == nil {
		t.Fatal("expected failure with every replica down")
	}
	if !errors.Is(err, errConnReset) {
		t.Errorf("err = %v, want the last replica's failure in the chain", err)
	}
	if a.calls != 2 || b.calls != 2 {
		t.Errorf("calls: a=%d b=%d, want 2/2", a.calls, b.calls)
	}
}

func TestReconnectorStopsOnCancel(t *testing.T) {
	inner := &flakyClient{id: "s", failN: 99}
	rc := newReconnector("s", func() (Client, error) { return inner, nil }, 10, time.Millisecond, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	rc.sleep = func(sctx context.Context, d time.Duration) error {
		cancel() // the caller gives up during the first backoff
		return sctx.Err()
	}
	if _, err := rc.Call(ctx, &Request{Op: OpPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if inner.calls != 1 {
		t.Errorf("retried after cancellation: %d calls", inner.calls)
	}

	// Already-cancelled contexts never reach the wire.
	inner2 := &flakyClient{id: "s"}
	rc2 := newReconnector("s", func() (Client, error) { return inner2, nil }, 3, 0, nil, nil)
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := rc2.Call(ctx2, &Request{Op: OpPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if inner2.calls != 0 {
		t.Errorf("cancelled call still hit the wire: %d", inner2.calls)
	}
}

// shedClient refuses its first shedN calls with code (a drain sheds, a
// limit refusal is final), then succeeds.
type shedClient struct {
	id    string
	shedN int
	code  int
	calls int
}

func (s *shedClient) SiteID() string { return s.id }
func (s *shedClient) Close() error   { return nil }

func (s *shedClient) Call(ctx context.Context, req *Request) (*Response, error) {
	s.calls++
	charge(ctx, Delta{Sent: 10, Recv: 5})
	if s.calls <= s.shedN {
		return &Response{Err: "refused", Code: s.code}, nil
	}
	return &Response{RowCount: 1}, nil
}

func TestShedFailoverDoesNotBurnRetryBudget(t *testing.T) {
	// One attempt only: if the shed failover consumed retry budget, the
	// very first drain refusal would exhaust it and the call would
	// fail instead of landing on the healthy replica.
	over := &shedClient{id: "a", shedN: 99, code: CodeDraining}
	good := &flakyClient{id: "b"}
	o := obs.New()
	rc := replicaSetOf(o,
		newReconnector("s", func() (Client, error) { return over, nil }, 1, 0, nil, nil),
		newReconnector("s", func() (Client, error) { return good, nil }, 1, 0, nil, nil),
	)
	resp, d, err := Exchange(context.Background(), rc, &Request{Op: OpPing})
	if err != nil {
		t.Fatalf("shed failover failed: %v", err)
	}
	if resp.Error() != nil || resp.RowCount != 1 {
		t.Errorf("resp = %+v", resp)
	}
	if over.calls != 1 || good.calls != 1 {
		t.Errorf("calls: over=%d good=%d, want 1/1", over.calls, good.calls)
	}
	if cur := rc.current(); cur != 1 {
		t.Errorf("current replica = %d, want sticky failover to 1", cur)
	}
	if got := o.Metrics.CounterValue("transport.overload_failovers"); got != 1 {
		t.Errorf("overload_failovers = %d, want 1", got)
	}
	if got := len(o.Events.ByKind(obs.EventOverload)); got != 1 {
		t.Errorf("overload events = %d, want 1", got)
	}
	// The shed attempt's traffic is waste, not part of the exchange: only
	// the successful replica's bytes (10 sent / 20 received) are charged.
	if d.Sent != 10 || d.Recv != 20 {
		t.Errorf("exchange delta sent=%d recv=%d, want 10/20", d.Sent, d.Recv)
	}
	if got := o.Metrics.CounterValue("transport.retry_wasted_bytes"); got != 15 {
		t.Errorf("retry_wasted_bytes = %d, want 15", got)
	}
}

func TestAllReplicasShed(t *testing.T) {
	// Every replica sheds: the caller gets the shed response itself (not a
	// transport error), so it can classify via errors.Is(_, ErrDraining).
	a := &shedClient{id: "a", shedN: 99, code: CodeDraining}
	b := &shedClient{id: "b", shedN: 99, code: CodeDraining}
	rc := replicaSetOf(nil,
		newReconnector("s", func() (Client, error) { return a, nil }, 3, 0, nil, nil),
		newReconnector("s", func() (Client, error) { return b, nil }, 3, 0, nil, nil),
	)
	resp, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if err != nil {
		t.Fatalf("want shed response, got transport error %v", err)
	}
	if !resp.Shed() {
		t.Fatalf("resp = %+v, want shed", resp)
	}
	if !errors.Is(resp.Error(), ErrDraining) {
		t.Errorf("resp.Error() = %v, want ErrDraining", resp.Error())
	}
	// Exactly one call per replica: no retry budget burned on shed.
	if a.calls != 1 || b.calls != 1 {
		t.Errorf("calls: a=%d b=%d, want 1/1", a.calls, b.calls)
	}
}

// cancelledClient simulates a sibling cancellation surfacing from the
// wire layer: the error wraps context.Canceled even though the call's
// own context may still look alive at classification time.
type cancelledClient struct {
	id    string
	calls int
}

func (c *cancelledClient) SiteID() string { return c.id }
func (c *cancelledClient) Close() error   { return nil }

func (c *cancelledClient) Call(ctx context.Context, req *Request) (*Response, error) {
	c.calls++
	return nil, fmt.Errorf("site s: call aborted: %w", context.Canceled)
}

func TestReconnectorSiblingCancellationNotRetried(t *testing.T) {
	// When the coordinator cancels a round because a sibling site failed,
	// this site's in-flight call dies with a wrapped context.Canceled.
	// That is not a site fault: retrying (or failing over) would burn
	// budget the real failure diagnosis needs.
	inner := &cancelledClient{id: "s"}
	dials := 0
	rc := newReconnector("s", func() (Client, error) { dials++; return inner, nil }, 5, 0, nil, nil)
	_, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if inner.calls != 1 || dials != 1 {
		t.Errorf("calls=%d dials=%d, want 1/1 (cancellation retried)", inner.calls, dials)
	}
}

func TestReconnectorNoRetryAfterDeadline(t *testing.T) {
	// A hung endpoint under a per-call deadline: the reconnector must not
	// burn its remaining attempts (or fail over) once the deadline is the
	// reason for the failure.
	chaos := NewChaos()
	chaos.Inject(OpPing, Fault{Hang: true})
	r := Replica{Handler: newEchoHandler(), Chaos: chaos}
	s, err := NewSite(SiteSpec{ID: "s", Replicas: []Replica{r}})
	if err != nil {
		t.Fatal(err)
	}
	dials := 0
	rc := newReconnector("s", func() (Client, error) { dials++; return s.dial(r) }, 5, 0, nil, nil)
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = rc.Call(ctx, &Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if dials != 1 || chaos.Calls() != 1 {
		t.Errorf("dials=%d calls=%d, want 1/1", dials, chaos.Calls())
	}
}

// TestReconnectorCloseIsFinal: a closed retry layer refuses every later
// call with ErrClosed and dials nothing, whether it held a connection when
// it was closed or had never dialed.
func TestReconnectorCloseIsFinal(t *testing.T) {
	inner := &flakyClient{id: "s"}
	dials := 0
	rc := newReconnector("s", func() (Client, error) { dials++; return inner, nil }, 3, 0, nil, nil)
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	for i := 0; i < 2; i++ {
		if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); !errors.Is(err, ErrClosed) {
			t.Errorf("call %d after Close: %v, want ErrClosed", i, err)
		}
	}
	if dials != 1 || inner.calls != 1 || inner.closed != 1 {
		t.Errorf("dials=%d calls=%d closes=%d, want 1/1/1", dials, inner.calls, inner.closed)
	}

	idleDials := 0
	idle := newReconnector("s", func() (Client, error) { idleDials++; return inner, nil }, 3, 0, nil, nil)
	idle.Close()
	if _, err := idle.Call(context.Background(), &Request{Op: OpPing}); !errors.Is(err, ErrClosed) || idleDials != 0 {
		t.Errorf("a never-dialed layer after Close: %v with %d dials, want ErrClosed and none", err, idleDials)
	}
}
