package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// opBlockingHandler blocks OpEvalRounds until released and answers
// everything else immediately, so a test can pin one request in flight
// while still probing the server with pings. A non-nil entered receives
// once per OpEvalRounds request the handler was given.
type opBlockingHandler struct{ release, entered chan struct{} }

func (h *opBlockingHandler) Handle(ctx context.Context, req *Request) *Response {
	if req.Op == OpEvalRounds {
		if h.entered != nil {
			h.entered <- struct{}{}
		}
		<-h.release
	}
	return &Response{}
}

// draining reports whether the server publishing into o has started a
// drain: Drain marks itself not ready as it starts.
func draining(o *obs.Obs) bool {
	ready, _ := o.Health.Ready()
	return !ready
}

// TestServerDrain: SIGTERM-style drain must stop accepting, flip /readyz
// to not-ready, refuse new requests on existing connections with a
// draining shed response, and still let the in-flight request finish.
func TestServerDrain(t *testing.T) {
	h := &opBlockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h)
	o := obs.New()
	srv.Obs = o
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second connection established pre-drain: its post-drain requests
	// must be shed, not serviced. Ping once so the server has actually
	// accepted it before the drain closes the listener.
	c2, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Op: OpEvalRounds})
		inflight <- err
	}()
	<-h.entered // the handler runs only admitted requests

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	waitUntil(t, "server draining", func() bool { return draining(o) })

	if ready, reason := o.Health.Ready(); ready || reason != "draining" {
		t.Errorf("health = (%v, %q), want (false, draining)", ready, reason)
	}

	// New request on the surviving connection: shed with CodeDraining.
	resp, err := c2.Call(context.Background(), &Request{Op: OpPing})
	if err != nil {
		t.Fatalf("drain-time request should be shed, got transport error %v", err)
	}
	if resp.Code != CodeDraining || !errors.Is(resp.Error(), ErrDraining) {
		t.Fatalf("resp = %+v, want CodeDraining", resp)
	}

	// The in-flight request completes and the drain then finishes cleanly.
	close(h.release)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request lost during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
	if got := o.Metrics.CounterValue("transport.server.drain_rejects"); got != 1 {
		t.Errorf("drain_rejects = %d, want 1", got)
	}
	if got := len(o.Events.ByKind(obs.EventDrain)); got == 0 {
		t.Error("no drain events logged")
	}
}

// TestServerDrainTimeout: a request that outlives the deadline makes
// Drain return an error instead of hanging forever.
func TestServerDrainTimeout(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(h.release)

	go c.Call(context.Background(), &Request{Op: OpPing})
	waitUntil(t, "request in flight", func() bool { return srv.Inflight() == 1 })

	start := time.Now()
	if err := srv.Drain(50 * time.Millisecond); err == nil {
		t.Fatal("drain with a stuck request should time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("drain deadline not enforced")
	}
}

// TestServerDrainIdle: draining an idle server returns immediately.
func TestServerDrainIdle(t *testing.T) {
	srv := NewServer(newEchoHandler())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	// Close after Drain stays clean (listener already closed).
	if err := srv.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// gatedListener hands out connections whose Write blocks until the gate
// opens; writing reports each blocked write and closed each Close, so a
// test can hold a response between "handler returned" and "bytes on the
// socket" and watch what the server does to the connection meanwhile.
type gatedListener struct {
	net.Listener
	gate    chan struct{}
	writing chan struct{}
	closed  chan struct{}
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, l: l}, nil
}

type gatedConn struct {
	net.Conn
	l *gatedListener
}

func (c *gatedConn) Write(p []byte) (int, error) {
	select {
	case c.l.writing <- struct{}{}:
	default:
	}
	<-c.l.gate
	return c.Conn.Write(p)
}

func (c *gatedConn) Close() error {
	select {
	case c.l.closed <- struct{}{}:
	default:
	}
	return c.Conn.Close()
}

// TestDrainWaitsForResponseWrite pins the interleaving behind the drain
// race instead of racing it: the handler has returned, the response is
// held just before the socket write, and only then does Drain start. Drain
// must keep the connection open until the response is out.
func TestDrainWaitsForResponseWrite(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &gatedListener{
		Listener: inner,
		gate:     make(chan struct{}),
		writing:  make(chan struct{}, 1),
		closed:   make(chan struct{}, 1),
	}
	srv := NewServer(newEchoHandler())
	o := obs.New()
	srv.Obs = o
	addr := srv.Serve(l)

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inflight := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Op: OpPing})
		inflight <- err
	}()
	<-l.writing // the handler has returned; its response is held at the socket

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	waitUntil(t, "server draining", func() bool { return draining(o) })
	select {
	case <-l.closed:
		t.Fatal("drain closed the connection under an unwritten response")
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the response was written", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(l.gate)
	if err := <-inflight; err != nil {
		t.Errorf("in-flight request lost during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
}
