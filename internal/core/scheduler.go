package core

//lint:wrap-errors admission refusals must stay inspectable with errors.Is

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrAdmission is the sentinel every admission refusal matches with
// errors.Is: the scheduler declined to start (or keep queueing) a query
// because the cluster is saturated. It is a load signal, not a failure of
// the query itself — the caller should shed upstream (HTTP 429), back
// off, and retry later.
var ErrAdmission = errors.New("core: admission rejected")

// AdmissionError is the concrete admission refusal, carrying why the
// query was turned away. errors.Is(err, ErrAdmission) matches it.
type AdmissionError struct {
	// Reason is a human-readable refusal cause ("queue full", "queue
	// wait exceeded 2s", ...).
	Reason string
}

// Error implements error.
func (e *AdmissionError) Error() string { return "core: admission rejected: " + e.Reason }

// Is makes errors.Is(err, ErrAdmission) true for every admission
// refusal without forcing callers through errors.As.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmission }

// SchedulerConfig tunes the admission scheduler.
type SchedulerConfig struct {
	// MaxConcurrent is how many executions may run at once. Values < 1
	// are treated as 1.
	MaxConcurrent int
	// QueueDepth is how many admissions may wait for a slot beyond
	// MaxConcurrent before new arrivals are rejected outright. 0 means
	// no queue: a full scheduler fails fast.
	QueueDepth int
	// QueueTimeout bounds how long a queued admission waits for a slot
	// before it is rejected; 0 waits as long as the caller's context
	// allows.
	QueueTimeout time.Duration
	// Obs, when set, receives admission counters ("sched.admitted",
	// "sched.rejected", "sched.queue_timeouts", "sched.completed"),
	// the "sched.running"/"sched.queued" gauges, and admission events.
	Obs *obs.Obs
}

// Scheduler admits concurrent query executions against a shared site
// fleet: a bounded number run at once, a bounded queue absorbs bursts,
// and everything beyond that is rejected fast with a typed ErrAdmission
// instead of piling latency onto queries already running. Per-site
// backpressure is separate — see transport.Site — so one slow or shedding
// site throttles calls to itself without stalling admission globally.
//
// The zero Scheduler is not usable; construct with NewScheduler.
type Scheduler struct {
	cfg   SchedulerConfig
	slots chan struct{} // running-execution tokens

	seq int64 // epoch sequence, atomic

	mu sync.Mutex
	//lint:guarded-by mu
	queued int
}

// NewScheduler returns a scheduler for cfg.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	return &Scheduler{cfg: cfg, slots: make(chan struct{}, cfg.MaxConcurrent)}
}

// Running reports how many executions hold an admission slot.
func (s *Scheduler) Running() int { return len(s.slots) }

// Queued reports how many admissions are waiting for a slot.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// NextEpoch derives a unique execution epoch from base. Concurrent
// executions of the same plan would otherwise derive identical epochs
// (the epoch is a deterministic plan hash, which is what lets a restarted
// coordinator find its checkpoint) and poison each other's site-side
// replay dedup; the scheduler's sequence number keeps them distinct.
func (s *Scheduler) NextEpoch(base string) string {
	return fmt.Sprintf("%s-c%06d", base, atomic.AddInt64(&s.seq, 1))
}

// Admit blocks until the caller may start an execution, the queue policy
// rejects it, or ctx is done. On success the returned release function
// must be called exactly once when the execution finishes. On refusal the
// error matches errors.Is(err, ErrAdmission); a caller-cancelled ctx
// surfaces as the context error instead.
func (s *Scheduler) Admit(ctx context.Context) (release func(), err error) {
	o := s.cfg.Obs
	select {
	case s.slots <- struct{}{}:
		return s.admitted(), nil
	default:
	}

	// Saturated: queue if the queue has room, else fail fast.
	s.mu.Lock()
	if s.queued >= s.cfg.QueueDepth {
		queued := s.queued
		s.mu.Unlock()
		o.Count("sched.rejected", 1)
		o.Event(obs.EventAdmission, "", "query rejected: scheduler saturated and queue full",
			map[string]string{"reason": "queue-full", "running": fmt.Sprint(len(s.slots)), "queued": fmt.Sprint(queued)})
		return nil, &AdmissionError{Reason: fmt.Sprintf("%d running, queue full (%d waiting)", len(s.slots), queued)}
	}
	s.queued++
	o.SetGauge("sched.queued", int64(s.queued))
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		o.SetGauge("sched.queued", int64(s.queued))
		s.mu.Unlock()
	}()

	wait := ctx.Done()
	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.slots <- struct{}{}:
		return s.admitted(), nil
	case <-timeout:
		o.Count("sched.queue_timeouts", 1)
		o.Event(obs.EventAdmission, "", "queued query timed out waiting for an execution slot",
			map[string]string{"reason": "queue-timeout", "running": fmt.Sprint(len(s.slots))})
		return nil, &AdmissionError{Reason: fmt.Sprintf("queue wait exceeded %v", s.cfg.QueueTimeout)}
	case <-wait:
		return nil, fmt.Errorf("core: admission wait: %w", ctx.Err())
	}
}

// admitted records a successful admission and builds its release func.
func (s *Scheduler) admitted() func() {
	o := s.cfg.Obs
	o.Count("sched.admitted", 1)
	o.SetGauge("sched.running", int64(len(s.slots)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.slots
			o.Count("sched.completed", 1)
			o.SetGauge("sched.running", int64(len(s.slots)))
		})
	}
}
