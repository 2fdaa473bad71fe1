package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// gateHandler answers pings immediately and blocks OpEvalRounds requests until
// released (or the caller's context gives up), tracking the in-handler
// concurrency high-water mark.
type gateHandler struct {
	release chan struct{}

	mu       sync.Mutex
	inflight int
	peak     int
}

func newGateHandler() *gateHandler {
	return &gateHandler{release: make(chan struct{})}
}

func (h *gateHandler) Handle(ctx context.Context, req *Request) *Response {
	h.mu.Lock()
	h.inflight++
	if h.inflight > h.peak {
		h.peak = h.inflight
	}
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.inflight--
		h.mu.Unlock()
	}()
	if req.Op == OpEvalRounds {
		select {
		case <-h.release:
		case <-ctx.Done():
		}
	}
	return &Response{}
}

func (h *gateHandler) peakInflight() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peak
}

// localDial's clients are made by concurrent pool calls, hence the
// atomic client counter.
func localDial(h Handler) func() Client {
	var n atomic.Int64
	return func() Client {
		return pipeRetry(fmt.Sprintf("conn-%d", n.Add(1)), h, nil)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	o := obs.New()
	p := NewPool("s0", 4, localDial(newGateHandler()), o)
	defer p.Close()

	for i := 0; i < 5; i++ {
		if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls ride one client: no reason to make more.
	if got := o.Metrics.CounterValue("transport.pool.dials"); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
	if got := o.Metrics.Gauge("transport.pool.in_use").Value(); got != 0 {
		t.Errorf("transport.pool.in_use = %d after all calls returned", got)
	}
}

func TestPoolCapsConcurrency(t *testing.T) {
	h := newGateHandler()
	p := NewPool("s0", 2, localDial(h), nil)
	defer p.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Call(context.Background(), &Request{Op: OpEvalRounds})
			errs <- err
		}()
	}
	// Let two borrowers reach the handler, then release everyone.
	deadline := time.Now().Add(2 * time.Second)
	for h.peakInflight() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(h.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := h.peakInflight(); got != 2 {
		t.Errorf("handler concurrency peak = %d, want 2 (pool max)", got)
	}
}

// TestPoolConcurrentCallsExact: calls sharing one pool, and one pooled
// connection, each see exactly their own traffic.
func TestPoolConcurrentCallsExact(t *testing.T) {
	h := newGateHandler()
	p := NewPool("s0", 1, localDial(h), nil)
	defer p.Close()
	_, lone, err := Exchange(context.Background(), p, &Request{Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	if lone.Sent <= 0 || lone.Recv <= 0 {
		t.Fatalf("lone call delta = %+v, want traffic both ways", lone)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, d, err := Exchange(context.Background(), p, &Request{Op: OpPing})
				if err != nil {
					t.Error(err)
					return
				}
				if d != lone {
					t.Errorf("delta = %+v, want a lone call's %+v: calls sharing one connection must each see exactly their own traffic", d, lone)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolCancellationIsolation(t *testing.T) {
	h := newGateHandler()
	p := NewPool("s0", 2, localDial(h), nil)
	defer p.Close()

	hungCtx, cancel := context.WithCancel(context.Background())
	hung := make(chan error, 1)
	go func() {
		_, err := p.Call(hungCtx, &Request{Op: OpEvalRounds})
		hung <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for h.peakInflight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// A sibling call on the same pool completes while the first hangs…
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("sibling call failed while another call hung: %v", err)
	}

	// …and cancelling the hung call aborts only its own call; both clients
	// are lent again, the cancelled one over a redialed connection.
	cancel()
	if err := <-hung; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung call err = %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
			t.Fatalf("pool unusable after a cancelled call: %v", err)
		}
	}
}

func TestPoolQueueTimeout(t *testing.T) {
	h := newGateHandler()
	o := obs.New()
	p := NewPool("s0", 1, localDial(h), o)
	defer p.Close()
	defer close(h.release)

	started := make(chan struct{})
	go func() {
		close(started)
		p.Call(context.Background(), &Request{Op: OpEvalRounds}) //nolint:errcheck
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for h.peakInflight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.Call(ctx, &Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call err = %v, want context.DeadlineExceeded", err)
	}
	if got := o.Metrics.CounterValue("transport.pool.waits"); got != 1 {
		t.Errorf("waits = %d, want 1", got)
	}
}

// TestPoolDialFailure: a pooled retry client whose dial fails surfaces
// the failure, gives its slot back, and is lent again: it dials afresh on
// its next call.
func TestPoolDialFailure(t *testing.T) {
	h := newGateHandler()
	var fail atomic.Bool
	fail.Store(true)
	dial := func() (Client, error) {
		if fail.Load() {
			return nil, errors.New("connection refused")
		}
		return dialPipe("s0", h, CostModel{}), nil
	}
	o := obs.New()
	p := NewPool("s0", 1, func() Client { return newReconnector("s0", dial, 1, 0, nil, o) }, o)
	defer p.Close()

	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("dial failure not surfaced")
	} else if !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want dial failure", err)
	}
	if got := o.Metrics.CounterValue("transport.redial_failures"); got != 1 {
		t.Errorf("redial_failures = %d, want 1", got)
	}
	if got := o.Metrics.Gauge("transport.pool.in_use").Value(); got != 0 {
		t.Fatalf("transport.pool.in_use = %d after the failed call returned", got)
	}
	// The site is reachable again: the same client serves the next call.
	fail.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Call(ctx, &Request{Op: OpPing}); err != nil {
		t.Fatalf("pool stuck after dial failure: %v", err)
	}
	if got := o.Metrics.CounterValue("transport.pool.dials"); got != 1 {
		t.Errorf("pool.dials = %d, want 1 (the failed client is lent again)", got)
	}
}

func TestPoolClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := NewPool("s0", 2, localDial(newGateHandler()), nil)
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("call succeeded on closed pool")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPoolOverTCP(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() (Client, error) { return DialTCP("s0", addr, CostModel{}) }
	p := NewPool("s0", 3, func() Client { return newReconnector("s0", dial, 1, 0, nil, nil) }, nil)
	defer p.Close()

	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d pool workers failed", n)
	}
}
