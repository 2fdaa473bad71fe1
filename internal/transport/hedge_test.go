package transport

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// replicaStub is a controllable replica for hedging tests: an optional
// delay (cancellable through the context), then a scripted outcome.
type replicaStub struct {
	id    string
	delay time.Duration
	// fail / shed script the outcome; default is a success.
	fail  bool
	shed  bool
	calls int64 // atomic
}

func (r *replicaStub) SiteID() string { return r.id }
func (r *replicaStub) Close() error   { return nil }
func (r *replicaStub) Calls() int64   { return atomic.LoadInt64(&r.calls) }

func (r *replicaStub) Call(ctx context.Context, req *Request) (*Response, error) {
	atomic.AddInt64(&r.calls, 1)
	charge(ctx, Delta{Sent: 10})
	if r.delay > 0 {
		if err := sleepCtx(ctx, r.delay); err != nil {
			return nil, err
		}
	}
	if r.fail {
		return nil, errConnReset
	}
	charge(ctx, Delta{Recv: 20})
	if r.shed {
		return &Response{Err: "draining", Code: CodeDraining}, nil
	}
	return &Response{RowCount: 1}, nil
}

func TestHedgerWinsRaceAgainstStraggler(t *testing.T) {
	testutil.CheckGoroutines(t)
	o := obs.New()
	primary := &replicaStub{id: "s0", delay: 30 * time.Second}
	secondary := &replicaStub{id: "s0"}
	h := NewHedger("s0", []Client{primary, secondary}, 5*time.Millisecond, nil, o)

	resp, d, err := Exchange(context.Background(), h, &Request{Op: OpEvalRounds})
	if err != nil || resp.RowCount != 1 {
		t.Fatalf("hedged call: %v / %+v", err, resp)
	}
	if wins := o.Metrics.CounterValue("transport.hedge_wins"); d.Hedges != 1 || wins != 1 {
		t.Errorf("hedges/wins = %d/%d, want 1/1", d.Hedges, wins)
	}
	if got := secondary.Calls(); got != 1 {
		t.Errorf("secondary calls = %d, want 1", got)
	}
	// Only the winner's traffic is charged to the call: the coordinator's
	// round byte accounting must stay deterministic under hedging.
	if d.Sent != 10 || d.Recv != 20 {
		t.Errorf("delta = sent %d recv %d, want winner-only 10/20", d.Sent, d.Recv)
	}
	if got := o.Metrics.CounterValue("transport.hedges"); got != 1 {
		t.Errorf("transport.hedges = %d, want 1", got)
	}
	if got := len(o.Events.ByKind(obs.EventHedge)); got != 1 {
		t.Errorf("hedge events = %d, want 1", got)
	}

	// Close cancels the losing attempt (cause ErrHedgeLost), waits it
	// out, and its partial traffic lands under hedge waste — the
	// goroutine-leak check above proves nothing lingers.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.CounterValue("transport.hedge_wasted_bytes"); got != 10 {
		t.Errorf("hedge_wasted_bytes = %d, want the loser's 10 sent bytes", got)
	}
}

func TestHedgerFastPrimaryNeverHedges(t *testing.T) {
	primary := &replicaStub{id: "s0"}
	secondary := &replicaStub{id: "s0"}
	o := obs.New()
	h := NewHedger("s0", []Client{primary, secondary}, time.Second, nil, o)
	defer h.Close()

	for i := 0; i < 3; i++ {
		_, d, err := Exchange(context.Background(), h, &Request{Op: OpEvalRounds})
		if err != nil {
			t.Fatal(err)
		}
		if d.Hedges != 0 {
			t.Errorf("call %d: hedges = %d, want 0 for a fast primary", i, d.Hedges)
		}
	}
	if hedges := o.Metrics.CounterValue("transport.hedges"); hedges != 0 {
		t.Errorf("transport.hedges = %d, want 0 for a fast primary", hedges)
	}
	if got := secondary.Calls(); got != 0 {
		t.Errorf("secondary calls = %d, want 0", got)
	}
}

func TestHedgerImmediateFailover(t *testing.T) {
	// The primary fails fast — long before the hedge threshold. The
	// replica layer must not sit out the timer: it fails over immediately.
	primary := &replicaStub{id: "s0", fail: true}
	secondary := &replicaStub{id: "s0"}
	o := obs.New()
	h := NewHedger("s0", []Client{primary, secondary}, 10*time.Second, nil, o)
	defer h.Close()

	start := time.Now()
	resp, d, err := Exchange(context.Background(), h, &Request{Op: OpEvalRounds})
	if err != nil || resp.RowCount != 1 {
		t.Fatalf("failover call: %v / %+v", err, resp)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("failover waited for the hedge timer (%s)", elapsed)
	}
	// A failover is not a hedge: it counts as a re-send of the call.
	if wins := o.Metrics.CounterValue("transport.hedge_wins"); d.Hedges != 0 || wins != 0 || d.Retries != 1 {
		t.Errorf("hedges/wins/retries = %d/%d/%d, want 0/0/1", d.Hedges, wins, d.Retries)
	}
	if got := o.Metrics.CounterValue("transport.failovers"); got != 1 {
		t.Errorf("transport.failovers = %d, want 1", got)
	}

	// With every replica failing, the settling failure reaches the caller
	// wrapped, so errors.Is still classifies it above the hedger.
	both := NewHedger("s1", []Client{&replicaStub{id: "s1", fail: true}, &replicaStub{id: "s1", fail: true}},
		10*time.Second, nil, nil)
	defer both.Close()
	if _, err = both.Call(context.Background(), &Request{Op: OpEvalRounds}); !errors.Is(err, errConnReset) {
		t.Errorf("all-fail call: err = %v, want the replicas' failure in the chain", err)
	}
}

func TestHedgerShedFailover(t *testing.T) {
	// A typed shed (a drain) is not decisive either: the hedger tries the
	// next replica, and only if everyone sheds does the shed surface.
	primary := &replicaStub{id: "s0", shed: true}
	secondary := &replicaStub{id: "s0"}
	h := NewHedger("s0", []Client{primary, secondary}, 10*time.Second, nil, nil)
	defer h.Close()

	resp, err := h.Call(context.Background(), &Request{Op: OpEvalRounds})
	if err != nil || resp.Shed() {
		t.Fatalf("shed failover: %v / %+v", err, resp)
	}

	both := NewHedger("s1", []Client{&replicaStub{id: "s1", shed: true}, &replicaStub{id: "s1", shed: true}},
		10*time.Second, nil, nil)
	defer both.Close()
	resp, err = both.Call(context.Background(), &Request{Op: OpEvalRounds})
	if err != nil {
		t.Fatalf("all-shed call errored at the transport level: %v", err)
	}
	if !resp.Shed() {
		t.Fatalf("all-shed call did not surface the shed: %+v", resp)
	}
}

func TestHedgerRespectsBudget(t *testing.T) {
	o := obs.New()
	budget := NewRetryBudget(0.001, 1, o)
	if !budget.Take() {
		t.Fatal("draining the budget")
	}
	primary := &replicaStub{id: "s0", delay: 50 * time.Millisecond}
	secondary := &replicaStub{id: "s0"}
	h := NewHedger("s0", []Client{primary, secondary}, time.Millisecond, budget, o)
	defer h.Close()

	resp, d, err := Exchange(context.Background(), h, &Request{Op: OpEvalRounds})
	if err != nil || resp.RowCount != 1 {
		t.Fatalf("call: %v / %+v", err, resp)
	}
	if hedges := o.Metrics.CounterValue("transport.hedges"); d.Hedges != 0 || hedges != 0 {
		t.Errorf("hedges = %d (transport.hedges %d), want 0 with an exhausted budget", d.Hedges, hedges)
	}
	if got := secondary.Calls(); got != 0 {
		t.Errorf("secondary calls = %d, want 0 (budget denied the hedge)", got)
	}
	if o.Metrics.CounterValue("transport.budget_denied") == 0 {
		t.Error("no denial recorded for the suppressed hedge")
	}
}

func TestHedgerOnlyEvalOpsHedge(t *testing.T) {
	// Non-idempotent ops (loads, generates, pings) never hedge, no
	// matter how slow the primary is.
	primary := &replicaStub{id: "s0", delay: 20 * time.Millisecond}
	secondary := &replicaStub{id: "s0"}
	o := obs.New()
	h := NewHedger("s0", []Client{primary, secondary}, time.Millisecond, nil, o)
	defer h.Close()

	_, d, err := Exchange(context.Background(), h, &Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if hedges := o.Metrics.CounterValue("transport.hedges"); d.Hedges != 0 || hedges != 0 {
		t.Errorf("hedges = %d (transport.hedges %d), want 0 for OpPing", d.Hedges, hedges)
	}
	if got := secondary.Calls(); got != 0 {
		t.Errorf("secondary calls = %d, want 0", got)
	}
}

func TestHedgerAdaptiveThreshold(t *testing.T) {
	h := NewHedger("s0", []Client{&replicaStub{id: "s0"}}, 0, nil, nil)
	defer h.Close()

	// No sample yet: the threshold sits at the ceiling so cold starts
	// never hedge on noise.
	if got := h.threshold(); got != hedgeCeiling {
		t.Errorf("cold threshold = %s, want ceiling %s", got, hedgeCeiling)
	}
	h.observe(4 * time.Millisecond)
	if got := h.threshold(); got != 12*time.Millisecond {
		t.Errorf("threshold = %s, want 3×4ms", got)
	}
	// A run of microsecond calls drags the EWMA under the floor…
	for i := 0; i < 100; i++ {
		h.observe(10 * time.Microsecond)
	}
	if got := h.threshold(); got != hedgeFloor {
		t.Errorf("threshold = %s, want floor %s", got, hedgeFloor)
	}
	// …and a run of slow calls pins it at the ceiling.
	for i := 0; i < 100; i++ {
		h.observe(time.Second)
	}
	if got := h.threshold(); got != hedgeCeiling {
		t.Errorf("threshold = %s, want ceiling %s", got, hedgeCeiling)
	}
}

// TestPoolLendsHedgeLoser: a pooled client whose call was abandoned
// because its hedge lost the race is lent again, and its next call
// succeeds on a fresh connection. The abandoned call's traffic is the
// replica layer's hedge waste, so the retry layer books none of it.
func TestPoolLendsHedgeLoser(t *testing.T) {
	h := newGateHandler()
	var conns atomic.Int64
	dial := func() (Client, error) {
		conns.Add(1)
		return dialPipe("s0", h, CostModel{}), nil
	}
	o := obs.New()
	p := NewPool("s0", 2, func() Client { return newReconnector("s0", dial, 1, 0, nil, o) }, o)
	defer p.Close()
	defer close(h.release)

	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Call(ctx, &Request{Op: OpEvalRounds})
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for h.peakInflight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel(ErrHedgeLost)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("lost hedge err = %v, want context.Canceled", err)
	}
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("pool unusable after a lost hedge: %v", err)
	}
	if got := o.Metrics.CounterValue("transport.pool.dials"); got != 1 {
		t.Errorf("pool.dials = %d, want 1 (the loser's client is lent again)", got)
	}
	if got := conns.Load(); got != 2 {
		t.Errorf("connections dialed = %d, want 2 (the loser's connection is replaced)", got)
	}
	if got := o.Metrics.CounterValue("transport.retry_wasted_bytes"); got != 0 {
		t.Errorf("retry_wasted_bytes = %d, want 0 (a lost hedge is not retry waste)", got)
	}
}

// refuseLoads is a replica that refuses every load.
type refuseLoads struct{ Handler }

func (r refuseLoads) Handle(ctx context.Context, req *Request) *Response {
	if req.Op == OpLoad {
		return &Response{Err: "load refused"}
	}
	return r.Handler.Handle(ctx, req)
}

// TestPlacementReachesEveryReplicaPastAFailure: a load over three replicas
// whose middle one refuses it fails naming that replica alone, and both
// others hold the relation.
func TestPlacementReachesEveryReplicaPastAFailure(t *testing.T) {
	handlers := []*echoHandler{newEchoHandler(), newEchoHandler(), newEchoHandler()}
	var replicas []Replica
	for i, h := range handlers {
		var hd Handler = h
		if i == 1 {
			hd = refuseLoads{h}
		}
		replicas = append(replicas, Replica{Handler: hd})
	}
	rs := siteClient(t, SiteSpec{ID: "s0", Replicas: replicas})
	_, err := rs.Call(context.Background(), &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(10)})
	if err == nil || !strings.Contains(err.Error(), "replica 1: ") || strings.Contains(err.Error(), "replica 0") || strings.Contains(err.Error(), "replica 2") {
		t.Fatalf("load with replica 1 refusing: %v", err)
	}
	for _, i := range []int{0, 2} {
		if got := handlers[i].rels["t"]; got == nil || got.Len() != 10 {
			t.Errorf("replica %d holds %v, want the 10 loaded rows", i, got)
		}
	}
}
