package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/value"
)

// echoHandler answers pings and echoes loaded relations back.
type echoHandler struct {
	mu   sync.Mutex
	rels map[string]*relation.Relation
}

func newEchoHandler() *echoHandler {
	return &echoHandler{rels: map[string]*relation.Relation{}}
}

func (h *echoHandler) Handle(ctx context.Context, req *Request) *Response {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpLoad:
		h.rels[req.Rel] = req.Data
		return &Response{RowCount: req.Data.Len()}
	case OpRelInfo:
		r, ok := h.rels[req.Rel]
		if !ok {
			return &Response{Err: "no such relation"}
		}
		return &Response{Rel: r, RowCount: r.Len()}
	default:
		return &Response{Err: fmt.Sprintf("unsupported op %s", req.Op)}
	}
}

func sampleRelation(n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "k", Kind: value.KindInt},
		relation.Column{Name: "v", Kind: value.KindFloat},
		relation.Column{Name: "s", Kind: value.KindString},
	)
	r := relation.New(s)
	for i := 0; i < n; i++ {
		r.MustAppend(value.NewInt(int64(i)), value.NewFloat(float64(i)/2), value.NewString(fmt.Sprintf("row-%d", i)))
	}
	if n > 0 {
		r.Rows[0][1] = value.Null // exercise NULL over the wire
	}
	return r
}

func exerciseClient(t *testing.T, c Client) {
	t.Helper()
	// Every exchange's traffic is summed, and each that sent bytes counted.
	var total Delta
	msgs := 0
	call := func(ctx context.Context, req *Request) (*Response, error) {
		resp, d, err := Exchange(ctx, c, req)
		total.add(d)
		if d.Sent > 0 {
			msgs++
		}
		return resp, err
	}
	resp, err := call(context.Background(), &Request{Op: OpPing})
	if err != nil || resp.Error() != nil {
		t.Fatalf("ping: %v / %v", err, resp.Error())
	}
	rel := sampleRelation(50)
	resp, err = call(context.Background(), &Request{Op: OpLoad, Rel: "t", Data: rel})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RowCount != 50 {
		t.Errorf("load count = %d", resp.RowCount)
	}
	resp, err = call(context.Background(), &Request{Op: OpRelInfo, Rel: "t"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := resp.Frame()
	if err != nil || f.Len() != 50 {
		t.Fatalf("echo returned %v, %v", f, err)
	}
	back := f.Relation()
	// Schema survives the wire including lookup capability.
	if i, ok := back.Schema.Lookup("v"); !ok || i != 1 {
		t.Error("schema lookup broken after wire round trip")
	}
	if !back.Rows[0][1].IsNull() {
		t.Error("NULL lost over the wire")
	}
	if back.Rows[7][2].S != "row-7" {
		t.Errorf("string value corrupted: %v", back.Rows[7][2])
	}
	// Error responses convert to errors.
	resp, err = call(context.Background(), &Request{Op: OpRelInfo, Rel: "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error() == nil || !strings.Contains(resp.Error().Error(), "no such relation") {
		t.Errorf("error field: %v", resp.Error())
	}
	// The exchanges carried their traffic.
	if total.Sent <= 0 || total.Recv <= 0 || msgs < 4 {
		t.Errorf("exchanges: sent=%d recv=%d msgs=%d", total.Sent, total.Recv, msgs)
	}
}

func TestLocalClient(t *testing.T) {
	c := NewLocalClient("s1", newEchoHandler(), CostModel{})
	if c.SiteID() != "s1" {
		t.Error("SiteID")
	}
	exerciseClient(t, c)
	if err := c.Close(); err != nil {
		t.Error(err)
	}
}

func TestTCPClient(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialTCP("s1", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exerciseClient(t, c)
}

// TestLocalAndTCPByteParity: an in-process call is a TCP client's call
// over a pipe, so both account the same bytes on every call of a
// connection. The first call of each carries gob's type preamble for the
// Request and Response types, and only the first.
func TestLocalAndTCPByteParity(t *testing.T) {
	const reqPreamble, respPreamble = 613, 473
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := DialTCP("t", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	local := NewLocalClient("l", newEchoHandler(), CostModel{})
	defer local.Close()

	req := &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(100)}
	var calls []Delta
	for i := 0; i < 3; i++ {
		_, td, err := Exchange(context.Background(), tcp, req)
		if err != nil {
			t.Fatal(err)
		}
		_, ld, err := Exchange(context.Background(), local, req)
		if err != nil {
			t.Fatal(err)
		}
		if td != ld {
			t.Errorf("call %d: tcp accounted %+v, local %+v", i, td, ld)
		}
		calls = append(calls, td)
	}
	if calls[1] != calls[2] {
		t.Errorf("warm calls differ: %+v, %+v", calls[1], calls[2])
	}
	if d := calls[0].Sent - calls[1].Sent; d != reqPreamble {
		t.Errorf("request preamble = %d B, want %d", d, reqPreamble)
	}
	if d := calls[0].Recv - calls[1].Recv; d != respPreamble {
		t.Errorf("response preamble = %d B, want %d", d, respPreamble)
	}
}

func TestTCPMultipleClients(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialTCP(fmt.Sprintf("c%d", i), addr, CostModel{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(newEchoHandler())
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if err := srv.Close(); err != nil {
		t.Error("second close errored:", err)
	}
}

func TestCostModel(t *testing.T) {
	c := CostModel{LatencyPerMsg: time.Millisecond, BytesPerSec: 1000}
	if got := c.TransferTime(1000); got != time.Millisecond+time.Second {
		t.Errorf("TransferTime = %v", got)
	}
	if got := (CostModel{}).TransferTime(1 << 20); got != 0 {
		t.Errorf("zero model transfer = %v", got)
	}
	if DefaultWAN.TransferTime(0) <= 0 {
		t.Error("DefaultWAN has no latency")
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpPing: "ping", OpLoad: "load", OpGenerate: "generate",
		Op(3): "Op(3)", OpEvalRounds: "evalRounds",
		OpDrop: "drop", OpRelInfo: "relInfo", Op(99): "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// flakyListener injects transient Accept failures before delegating.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	inject := l.fails > 0
	if inject {
		l.fails--
	}
	l.mu.Unlock()
	if inject {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors: a transient Accept failure
// (EMFILE and friends) must not kill the listener.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newEchoHandler())
	var logged int32
	srv.Logf = func(format string, args ...any) { atomic.AddInt32(&logged, 1) }
	addr := srv.Serve(&flakyListener{Listener: l, fails: 2})
	defer srv.Close()

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("server died after transient accept error: %v", err)
	}
	if atomic.LoadInt32(&logged) != 2 {
		t.Errorf("logged %d accept errors, want 2", logged)
	}
}

// TestTCPClientBrokenAfterStreamError: once an exchange fails mid-stream
// the gob state is desynced; the client must close the connection and
// fail fast instead of reusing the corrupt stream.
func TestTCPClientBrokenAfterStreamError(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // kill the server: the next exchange fails mid-stream
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err == nil {
		t.Fatal("call against a dead server succeeded")
	}
	_, err = c.Call(context.Background(), &Request{Op: OpPing})
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("want fail-fast broken-connection error, got %v", err)
	}
}

// blockingHandler blocks every request until released.
type blockingHandler struct{ release chan struct{} }

func (h *blockingHandler) Handle(ctx context.Context, req *Request) *Response {
	<-h.release
	return &Response{}
}

// TestTCPCallDeadline: a context deadline must bound a call against a
// site that accepted the request and never answers, and the aborted
// connection must be marked broken (the reply could still arrive later
// and desync the stream).
func TestTCPCallDeadline(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(h.release) // LIFO: release the handler before Close waits

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, &Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced: took %v", elapsed)
	}
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("aborted connection not marked broken: %v", err)
	}
}

// TestTCPCallCancel: cancellation (not just deadlines) interrupts
// blocked I/O.
func TestTCPCallCancel(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(h.release) // LIFO: release the handler before Close waits

	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Call(ctx, &Request{Op: OpPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// TestReconnectorRedialsAfterBrokenStream: the broken-connection marking
// and the reconnector compose — a retry gets a fresh connection.
func TestReconnectorRedialsAfterBrokenStream(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReplicaTCP("s", []string{addr}, CostModel{}, 3, 0)
	defer rc.Close()
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := NewServer(newEchoHandler())
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer srv2.Close()
	// First attempt fails on the stale (now broken) connection; the
	// retry redials and succeeds.
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("reconnector did not recover from broken stream: %v", err)
	}
}

func TestLocalCallCancel(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{})}
	defer close(h.release)
	c := NewLocalClient("s", h, CostModel{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Call(ctx, &Request{Op: OpPing}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("local call did not honor the deadline")
	}
}
