package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// testClock is a manually advanced clock for breaker cooldowns.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time               { return c.now }
func (c *testClock) Advance(d time.Duration)      { c.now = c.now.Add(d) }
func newTestClock() *testClock                    { return &testClock{now: time.Unix(1000, 0)} }
func withClock(b *Breaker, c *testClock) *Breaker { b.SetNow(c.Now); return b }

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clock := newTestClock()
	o := obs.New()
	b := withClock(NewBreaker("s0", 3, time.Second, o), clock)

	// Two failures, then a success: the streak resets, nothing opens.
	b.Failure()
	b.Failure()
	b.Success()
	for i := 0; i < 2; i++ {
		b.Failure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after interrupted streak = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a call")
	}

	// The third consecutive failure trips it.
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call inside the cooldown")
	}
	if got := o.Metrics.CounterValue("transport.breaker_open"); got != 1 {
		t.Errorf("breaker_open = %d, want 1", got)
	}
	if got := o.Metrics.CounterValue("transport.breaker_rejected"); got != 1 {
		t.Errorf("breaker_rejected = %d, want 1", got)
	}
	if got := o.Events.CountKind(obs.EventBreaker); got == 0 {
		t.Error("no breaker transition events published")
	}
}

func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	clock := newTestClock()
	b := withClock(NewBreaker("s0", 1, time.Second, nil), clock)
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker allowed a call")
	}

	clock.Advance(time.Second)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	// Exactly one probe goes through; concurrent callers are refused
	// until its verdict is in.
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("second call allowed while the probe is in flight")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a call after recovery")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clock := newTestClock()
	b := withClock(NewBreaker("s0", 1, time.Second, nil), clock)
	b.Failure()
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a call before the next cooldown")
	}
	// A fresh cooldown grants another probe; a neutral outcome (the
	// probe's caller gave up) releases the slot without a verdict.
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after the second cooldown")
	}
	b.Neutral()
	if !b.Allow() {
		t.Fatal("probe slot not released after a neutral outcome")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerObserveClassification(t *testing.T) {
	clock := newTestClock()
	b := withClock(NewBreaker("s0", 2, time.Second, nil), clock)

	// Caller-side cancellation is neutral: it must never open a breaker.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10; i++ {
		b.Observe(cancelled, nil, context.Canceled)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("cancellations opened the breaker: %v", got)
	}

	// A propagated-deadline expiry shed is neutral too.
	for i := 0; i < 10; i++ {
		b.Observe(context.Background(), &Response{Err: "expired", Code: CodeExpired}, nil)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("deadline sheds opened the breaker: %v", got)
	}

	// A plain site-side error means the site is answering: success.
	b.Observe(context.Background(), nil, errors.New("connection reset"))
	b.Observe(context.Background(), &Response{Err: "no such relation"}, nil)
	b.Observe(context.Background(), nil, errors.New("connection reset"))
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("interleaved site errors opened the breaker: %v", got)
	}

	// Transport errors and shed responses both count as failures.
	b.Observe(context.Background(), nil, errors.New("connection reset"))
	b.Observe(context.Background(), &Response{Err: "overloaded", Code: CodeOverloaded}, nil)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open after error+shed", got)
	}
}

func TestBreakerClientFailsFast(t *testing.T) {
	clock := newTestClock()
	inner := &flakyClient{id: "s0", failN: 1 << 30} // never recovers
	b := withClock(NewBreaker("s0", 2, time.Second, nil), clock)
	cl := &breakerClient{Client: inner, breaker: b}

	for i := 0; i < 2; i++ {
		if _, err := cl.Call(context.Background(), &Request{Op: OpPing}); err == nil {
			t.Fatal("failing site call succeeded")
		}
	}
	// The breaker is open: the next call is refused locally, with a typed
	// error, without touching the inner client.
	before := inner.calls
	_, err := cl.Call(context.Background(), &Request{Op: OpPing})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if inner.calls != before {
		t.Errorf("open breaker still forwarded the call (%d → %d)", before, inner.calls)
	}

	// Past the cooldown, the probe flows through and a recovery closes it.
	clock.Advance(time.Second)
	inner.failN = 0
	if _, err := cl.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
}
