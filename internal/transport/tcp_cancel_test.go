package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// hookConn runs onRead after every successful read and remembers the last
// deadline set, so a test can cancel a call's context exactly as its
// response arrives and see what deadline the call leaves behind.
type hookConn struct {
	net.Conn
	mu       sync.Mutex
	onRead   func()
	deadline time.Time
}

func (c *hookConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	hook := c.onRead
	c.mu.Unlock()
	if n > 0 && hook != nil {
		hook()
	}
	return n, err
}

func (c *hookConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *hookConn) setOnRead(f func()) {
	c.mu.Lock()
	c.onRead = f
	c.mu.Unlock()
}

func (c *hookConn) lastDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline
}

// slowPingHandler answers after a short pause, so a deadline poked by a
// stale watcher has time to land inside the exchange it would break.
type slowPingHandler struct{}

func (slowPingHandler) Handle(context.Context, *Request) *Response {
	time.Sleep(2 * time.Millisecond)
	return &Response{}
}

// TestCallCancelledAsItCompletes cancels a call's context at the moment
// its response has been read, then issues another call on the same bare
// client. The first call's cancellation watcher must be finished, and the
// deadline it poked cleared, before Call returns: a watcher that fires
// late times out the next call ("i/o timeout" with no deadline set) and a
// bare TCPClient stays broken after that.
func TestCallCancelledAsItCompletes(t *testing.T) {
	srv := NewServer(slowPingHandler{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hc := &hookConn{Conn: raw}
	c := newTCPClient("s", hc, CostModel{})
	defer c.Close()

	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		hc.setOnRead(cancel)
		_, err := c.Call(ctx, &Request{Op: OpPing})
		hc.setOnRead(nil)
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: call whose response had arrived failed: %v", i, err)
		}
		if dl := hc.lastDeadline(); !dl.IsZero() {
			t.Fatalf("iteration %d: call returned leaving deadline %v on the connection", i, dl)
		}
		if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
			t.Fatalf("iteration %d: call after a cancelled one: %v", i, err)
		}
	}
}

// hangUpHandler blocks every request until its context is done, reporting
// the cancellation on cancelled, or until the test releases it.
type hangUpHandler struct {
	cancelled chan struct{}
	release   chan struct{}
}

func (h hangUpHandler) Handle(ctx context.Context, _ *Request) *Response {
	select {
	case <-ctx.Done():
		h.cancelled <- struct{}{}
	case <-h.release:
	}
	return &Response{}
}

// TestHangUpCancelsHandler pins the one path that stops doomed site work:
// a call whose deadline expires mid-exchange closes its connection, the
// server sees the peer gone and cancels the handler's context. No deadline
// travels in the request, so the hang-up alone must reach the handler.
func TestHangUpCancelsHandler(t *testing.T) {
	h := hangUpHandler{cancelled: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(h.release) // before Close, so a handler never cancelled returns
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, &Request{Op: OpEvalRounds}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call past its deadline: err = %v, want DeadlineExceeded", err)
	}
	select {
	case <-h.cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("handler context still live 2s after the caller hung up")
	}
}
