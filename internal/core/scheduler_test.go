package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

func TestSchedulerAdmitFailFast(t *testing.T) {
	o := obs.New()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 0, Obs: o})

	rel1, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Saturated with no queue: the second admission fails fast and typed.
	if _, err := s.Admit(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	var ae *AdmissionError
	if _, err := s.Admit(context.Background()); !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *AdmissionError", err)
	}
	if got := o.Metrics.CounterValue("sched.rejected"); got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	if got := o.Events.CountKind(obs.EventAdmission); got != 2 {
		t.Errorf("admission events = %d, want 2", got)
	}

	rel1()
	rel1() // release is idempotent
	rel2, err := s.Admit(context.Background())
	if err != nil {
		t.Fatalf("slot not freed by release: %v", err)
	}
	rel2()
	if got := o.Metrics.CounterValue("sched.admitted"); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
	if got := o.Metrics.CounterValue("sched.completed"); got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

func TestSchedulerQueueAdmitsWhenFreed(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 2})

	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r2, err := s.Admit(context.Background())
		if err == nil {
			r2()
		}
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Queued() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Queued() != 1 {
		t.Fatalf("queued = %d, want 1", s.Queued())
	}
	rel()
	if err := <-got; err != nil {
		t.Fatalf("queued admission failed after slot freed: %v", err)
	}
}

func TestSchedulerQueueTimeout(t *testing.T) {
	o := obs.New()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond, Obs: o})

	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := s.Admit(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission after queue timeout", err)
	}
	if got := o.Metrics.CounterValue("sched.queue_timeouts"); got != 1 {
		t.Errorf("queue_timeouts = %d, want 1", got)
	}
	if s.Queued() != 0 {
		t.Errorf("queued = %d after timeout, want 0", s.Queued())
	}
}

func TestSchedulerQueueCancellation(t *testing.T) {
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 1})

	rel, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(2 * time.Second)
		for s.Queued() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err = s.Admit(ctx)
	// Caller cancellation is the caller's choice, not an admission verdict.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrAdmission) {
		t.Fatal("cancellation misclassified as admission rejection")
	}
}

func TestSchedulerNextEpochUnique(t *testing.T) {
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 4})
	const n = 64
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := s.NextEpoch("base")
			mu.Lock()
			seen[e] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("%d unique epochs from %d concurrent executions", len(seen), n)
	}
}
