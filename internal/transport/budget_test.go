package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
)

func TestRetryBudgetTokenBucket(t *testing.T) {
	o := obs.New()
	b := NewRetryBudget(0.5, 2, o)

	// The bucket starts full: two speculative sends are granted.
	if !b.Take() || !b.Take() {
		t.Fatal("full budget denied a take")
	}
	if b.Take() {
		t.Fatal("empty budget granted a take")
	}
	// Two primary calls earn 2×0.5 = 1 token back.
	b.Earn()
	b.Earn()
	if !b.Take() {
		t.Fatal("earned token not spendable")
	}
	if b.Take() {
		t.Fatal("budget granted beyond its earnings")
	}
	if got := o.Metrics.CounterValue("transport.budget_denied"); got != 2 {
		t.Errorf("budget_denied = %d, want 2", got)
	}

	// Earnings cap at the burst: a long healthy streak cannot bank an
	// unbounded retry storm.
	for i := 0; i < 100; i++ {
		b.Earn()
	}
	if !b.Take() || !b.Take() || b.Take() {
		t.Error("a long streak banked other than the burst cap of 2 tokens")
	}
	if got := o.Metrics.CounterValue("transport.budget_denied"); got != 3 {
		t.Errorf("budget_denied = %d, want 3", got)
	}
}

func TestRetryBudgetNilIsUnlimited(t *testing.T) {
	var b *RetryBudget
	b.Earn() // must not panic
	for i := 0; i < 100; i++ {
		if !b.Take() {
			t.Fatal("nil budget denied a take")
		}
	}
}

// TestReconnectorBudgetExhaustion: under sustained chaos, the shared
// budget stops the retry loop early with a typed error instead of letting
// it burn every configured attempt.
func TestReconnectorBudgetExhaustion(t *testing.T) {
	chaos := NewChaos()
	for i := 0; i < 100; i++ {
		chaos.Inject(OpPing, Fault{Err: ErrInjected})
	}
	o := obs.New()
	budget := NewRetryBudget(0.001, 1, o) // one banked retry, near-zero refill
	rc := siteClient(t, SiteSpec{ID: "s0", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: chaos}},
		Resilience: Resilience{Attempts: 10}, Budget: budget})

	_, err := rc.Call(context.Background(), &Request{Op: OpPing})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// The injected fault is still inspectable behind the budget error.
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want the underlying injected fault wrapped", err)
	}
	// Attempt 1 (free) + the single banked retry = 2 calls, not 10.
	if got := chaos.Calls(); got != 2 {
		t.Errorf("calls = %d, want 2 (budget must cut the retry loop)", got)
	}
	if denied := o.Metrics.CounterValue("transport.budget_denied"); denied != 1 {
		t.Errorf("budget_denied = %d, want 1", denied)
	}

	// Healthy traffic refills the budget and retries resume.
	replenish := NewRetryBudget(1, 5, nil)
	chaos2 := NewChaos()
	chaos2.Inject(OpPing, Fault{Err: ErrInjected})
	chaos2.Inject(OpPing, Fault{Err: ErrInjected})
	rc2 := siteClient(t, SiteSpec{ID: "s1", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: chaos2}},
		Resilience: Resilience{Attempts: 5}, Budget: replenish})
	if _, err := rc2.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("budgeted retries failed despite tokens: %v", err)
	}
}
