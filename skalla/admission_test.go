package skalla

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// admissionOnly is a query service reduced to its admission state: enough
// to drive admit and nextEpoch without a cluster.
func admissionOnly(cfg ServeConfig, o *obs.Obs) *QueryService {
	return &QueryService{cfg: cfg, obs: o, slots: make(chan struct{}, cfg.MaxConcurrent)}
}

// queuedNow reports how many admissions wait for a slot.
func (s *QueryService) queuedNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

func TestAdmissionFailFast(t *testing.T) {
	o := obs.New()
	s := admissionOnly(ServeConfig{MaxConcurrent: 1, QueueDepth: 0}, o)

	rel1, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Saturated with no queue: the second admission fails fast and typed.
	if _, err := s.admit(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission", err)
	}
	var ae *AdmissionError
	if _, err := s.admit(context.Background()); !errors.As(err, &ae) {
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
	rel2, err := s.admit(context.Background())
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

func TestAdmissionQueueAdmitsWhenFreed(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := admissionOnly(ServeConfig{MaxConcurrent: 1, QueueDepth: 2}, nil)

	rel, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		r2, err := s.admit(context.Background())
		if err == nil {
			r2()
		}
		got <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.queuedNow() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.queuedNow() != 1 {
		t.Fatalf("queued = %d, want 1", s.queuedNow())
	}
	rel()
	if err := <-got; err != nil {
		t.Fatalf("queued admission failed after slot freed: %v", err)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	o := obs.New()
	s := admissionOnly(ServeConfig{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond}, o)

	rel, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := s.admit(context.Background()); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want ErrAdmission after queue timeout", err)
	}
	if got := o.Metrics.CounterValue("sched.queue_timeouts"); got != 1 {
		t.Errorf("queue_timeouts = %d, want 1", got)
	}
	if s.queuedNow() != 0 {
		t.Errorf("queued = %d after timeout, want 0", s.queuedNow())
	}
}

func TestAdmissionQueueCancellation(t *testing.T) {
	s := admissionOnly(ServeConfig{MaxConcurrent: 1, QueueDepth: 1}, nil)

	rel, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(2 * time.Second)
		for s.queuedNow() < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err = s.admit(ctx)
	// Caller cancellation is the caller's choice, not an admission verdict.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrAdmission) {
		t.Fatal("cancellation misclassified as admission rejection")
	}
}

func TestAdmissionEpochsUnique(t *testing.T) {
	s := admissionOnly(ServeConfig{MaxConcurrent: 4}, nil)
	const n = 64
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := s.nextEpoch()
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
