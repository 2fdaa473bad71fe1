package site

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestDeadlineExpiredOnArrival: a request whose propagated deadline is
// already spent (DeadlineNs < 0) is shed before any evaluation, with the
// typed expiry code — doomed work never touches the engine.
func TestDeadlineExpiredOnArrival(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)

	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalBase, Detail: "flow",
		BaseCols: []string{"SourceAS"}, DeadlineNs: -1,
	})
	err := resp.Error()
	if err == nil {
		t.Fatal("expired-on-arrival request was evaluated")
	}
	if resp.Code != transport.CodeExpired {
		t.Errorf("code = %d, want CodeExpired", resp.Code)
	}
	// The expiry is inspectable both as the transport's typed error and
	// as the standard deadline sentinel.
	if !errors.Is(err, transport.ErrExpired) {
		t.Errorf("err = %v, want ErrExpired in the chain", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	// An expiry is not an overload shed: it must not trip overload
	// handling (replica failover).
	if resp.Shed() {
		t.Error("expiry classified as an overload shed")
	}
	if resp.Rel != nil {
		t.Error("expired request still produced rows")
	}
	if got := o.Metrics.CounterValue("site.deadline_sheds"); got != 1 {
		t.Errorf("site.deadline_sheds = %d, want 1", got)
	}
}

// TestDeadlineExpiredProfileOutcome: a profiled request that arrives
// expired still reports a profile, tagged with the expiry outcome.
func TestDeadlineExpiredProfileOutcome(t *testing.T) {
	e := loadedEngine(t)
	resp := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalBase, Detail: "flow",
		BaseCols: []string{"SourceAS"}, QueryID: "q1", DeadlineNs: -1,
	})
	if resp.Code != transport.CodeExpired {
		t.Fatalf("code = %d, want CodeExpired", resp.Code)
	}
	if resp.Profile == nil || resp.Profile.Outcome != transport.OutcomeExpired {
		t.Errorf("profile = %+v, want OutcomeExpired", resp.Profile)
	}
}

// TestDeadlineGenerousBudgetEvaluates: a positive remaining budget bounds
// the evaluation but otherwise changes nothing — a comfortable deadline
// returns the same answer as no deadline at all.
func TestDeadlineGenerousBudgetEvaluates(t *testing.T) {
	e := loadedEngine(t)
	plain := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalBase, Detail: "flow", BaseCols: []string{"SourceAS"},
	})
	if plain.Error() != nil {
		t.Fatal(plain.Error())
	}
	bounded := e.Handle(context.Background(), &transport.Request{
		Op: transport.OpEvalBase, Detail: "flow", BaseCols: []string{"SourceAS"},
		DeadlineNs: int64(time.Minute),
	})
	if bounded.Error() != nil {
		t.Fatal(bounded.Error())
	}
	if bounded.Rel.Len() != plain.Rel.Len() {
		t.Errorf("bounded eval rows = %d, plain = %d", bounded.Rel.Len(), plain.Rel.Len())
	}
}

// TestDeadlineExpiryDuringEvaluation: when the budget runs out while the
// site is computing, the resulting deadline error is reclassified as the
// typed expiry shed instead of surfacing as a generic site error.
func TestDeadlineExpiryDuringEvaluation(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)

	// An outer context whose deadline has already passed stands in for
	// the budget expiring mid-evaluation: the eval loop's context check
	// fails with DeadlineExceeded on its first iteration.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	resp := e.Handle(ctx, &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols:   []string{"SourceAS", "DestAS"},
		Rounds:     []transport.RoundSpec{roundSpec(false, false)},
		DeadlineNs: int64(time.Minute),
	})
	err := resp.Error()
	if err == nil {
		t.Fatal("evaluation succeeded under an expired context")
	}
	if resp.Code != transport.CodeExpired {
		t.Errorf("code = %d, want CodeExpired for a mid-eval expiry", resp.Code)
	}
	if !errors.Is(err, transport.ErrExpired) {
		t.Errorf("err = %v, want ErrExpired in the chain", err)
	}
	if got := o.Metrics.CounterValue("site.deadline_sheds"); got != 1 {
		t.Errorf("site.deadline_sheds = %d, want 1", got)
	}

	// Without a propagated deadline the same failure stays a plain
	// context error — the reclassification is gated on DeadlineNs.
	resp = e.Handle(ctx, &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
		Rounds:   []transport.RoundSpec{roundSpec(false, false)},
	})
	if resp.Error() == nil {
		t.Fatal("evaluation succeeded under an expired context")
	}
	if resp.Code == transport.CodeExpired {
		t.Error("plain context expiry misclassified as a propagated-deadline shed")
	}
}
