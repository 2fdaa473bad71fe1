package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
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

// pipelineHandler holds the request of round 1 until released and answers
// every request with its round and relation, so a reply names its request.
type pipelineHandler struct{ entered, release chan struct{} }

func (h pipelineHandler) Handle(_ context.Context, req *Request) *Response {
	if req.Round == 1 {
		h.entered <- struct{}{}
		<-h.release
	}
	return &Response{RowCount: req.Round, Rel: req.Data}
}

// TestPipelinedRequestServedNext: a request that arrives while the one
// before it is still being handled is no hang-up. It is served next, once
// the first is answered, and answered byte for byte.
func TestPipelinedRequestServedNext(t *testing.T) {
	h := pipelineHandler{entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write(message(t, &Request{Op: OpEvalRounds, Round: 1})); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	if _, err := conn.Write(message(t, &Request{Op: OpLoad, Rel: "t", Round: 2, Data: sampleRelation(5)})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the second request reaches the server under the first
	close(h.release)
	for i, want := range [][]byte{
		message(t, &Response{RowCount: 1}),
		message(t, &Response{RowCount: 2, Rel: sampleRelation(5)}),
	} {
		body, err := readMessage(conn, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if !bytes.Equal(body, want[prefixLen:]) {
			t.Errorf("reply %d:\n% x\nwant\n% x", i+1, body, want[prefixLen:])
		}
	}
}

// TestMalformedUnderHandlerAnsweredFirst: a message of another protocol
// that arrives while a request is handled does not abort it. The request
// is answered byte for byte; then the server logs the bad message and
// closes the connection.
func TestMalformedUnderHandlerAnsweredFirst(t *testing.T) {
	h := pipelineHandler{entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewServer(h)
	logged := make(chan string, 1)
	srv.Logf = func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write(message(t, &Request{Op: OpEvalRounds, Round: 1, Data: sampleRelation(3)})); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	if _, err := conn.Write([]byte{4, 0, 0, 0, protocolVersion + 1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the bad message reaches the server under the request
	close(h.release)
	want := message(t, &Response{RowCount: 1, Rel: sampleRelation(3)})
	if body, err := readMessage(conn, nil); err != nil {
		t.Fatalf("reply: %v", err)
	} else if !bytes.Equal(body, want[prefixLen:]) {
		t.Errorf("reply:\n% x\nwant\n% x", body, want[prefixLen:])
	}
	if msg := <-logged; !strings.Contains(msg, "decode request") || !strings.Contains(msg, "protocol version 3") {
		t.Errorf("server logged %q, want the bad message's version named", msg)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("the server read on past a bad message: read %d bytes, %v", n, err)
	}
}
