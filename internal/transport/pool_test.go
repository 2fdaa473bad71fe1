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

// gateHandler answers pings immediately and blocks OpDrop requests until
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
	if req.Op == OpDrop {
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

// localDial's dial function is called by concurrent pool calls, hence
// the atomic connection counter.
func localDial(h Handler) func() (Client, error) {
	var n atomic.Int64
	return func() (Client, error) {
		return NewLocalClient(fmt.Sprintf("conn-%d", n.Add(1)), h, CostModel{}), nil
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
	// Sequential calls ride one connection: no reason to dial more.
	if got := o.Metrics.CounterValue("transport.pool.dials"); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
	if p.InUse() != 0 {
		t.Errorf("in-use = %d after all calls returned", p.InUse())
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
			_, err := p.Call(context.Background(), &Request{Op: OpDrop})
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
	// The connection's first exchange carries gob's type preamble: warm it
	// so every counted call below is the same size.
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
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
	o := obs.New()
	p := NewPool("s0", 2, localDial(h), o)
	defer p.Close()

	hungCtx, cancel := context.WithCancel(context.Background())
	hung := make(chan error, 1)
	go func() {
		_, err := p.Call(hungCtx, &Request{Op: OpDrop})
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

	// …and cancelling the hung call kills only its borrowed connection.
	cancel()
	if err := <-hung; !errors.Is(err, context.Canceled) {
		t.Fatalf("hung call err = %v, want context.Canceled", err)
	}
	if got := o.Metrics.CounterValue("transport.pool.discards"); got != 1 {
		t.Errorf("discards = %d, want 1 (only the cancelled call's connection)", got)
	}
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("pool unusable after discard: %v", err)
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
		p.Call(context.Background(), &Request{Op: OpDrop}) //nolint:errcheck
	}()
	<-started
	deadline := time.Now().Add(2 * time.Second)
	for p.InUse() < 1 && time.Now().Before(deadline) {
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

func TestPoolDialFailure(t *testing.T) {
	h := newGateHandler()
	fail := true
	dial := func() (Client, error) {
		if fail {
			return nil, errors.New("connection refused")
		}
		return NewLocalClient("c", h, CostModel{}), nil
	}
	o := obs.New()
	p := NewPool("s0", 1, dial, o)
	defer p.Close()

	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("dial failure not surfaced")
	} else if !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("err = %v, want dial failure", err)
	}
	if got := o.Metrics.CounterValue("transport.pool.dial_failures"); got != 1 {
		t.Errorf("dial_failures = %d, want 1", got)
	}
	// The failed dial released its slot: the pool recovers once the site
	// is reachable again.
	fail = false
	if _, err := p.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("pool stuck after dial failure: %v", err)
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

	p := NewPool("s0", 3, func() (Client, error) { return DialTCP("s0", addr, CostModel{}) }, nil)
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
