package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// countingHandler counts the requests that reach it and answers with resp.
type countingHandler struct {
	calls atomic.Int64
	resp  *Response
}

func (h *countingHandler) Handle(context.Context, *Request) *Response {
	h.calls.Add(1)
	return h.resp
}

// shortRow is the malformed relation: schema (SourceAS, DestAS), one row
// holding one value.
func shortRow() *relation.Relation {
	r := relation.New(relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
	))
	r.Rows = append(r.Rows, relation.Row{value.NewInt(1)})
	return r
}

// corruptFrame replaces, in the message msg, the relation framed as frame
// with a frame cut short: version 1, then a column count and nothing more.
func corruptFrame(t testing.TB, msg, frame []byte) []byte {
	t.Helper()
	field := append(binary.AppendUvarint(nil, uint64(len(frame))), frame...)
	at := bytes.Index(msg, field)
	if at < 0 {
		t.Fatal("the message does not hold the frame")
	}
	out := append(append(bytes.Clone(msg[:at]), 2, 1, 1), msg[at+len(field):]...)
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	return out
}

// frameOf is the frame of r.
func frameOf(t testing.TB, r *relation.Relation) []byte {
	t.Helper()
	f, err := relation.FrameOf(r)
	if err != nil {
		t.Fatal(err)
	}
	return f.Bytes()
}

// TestMalformedRelationRefused: a relation that has no frame never reaches
// a handler and never reaches a caller as data — a site would otherwise put
// the count of a one-value base row in DestAS and answer with shifted
// columns — and each refusal names its cause without costing the
// connection.
func TestMalformedRelationRefused(t *testing.T) {
	ctx := context.Background()
	round := []RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"F.SourceAS = B.SourceAS"}}}
	serve := func(t *testing.T, h Handler) (string, *obs.Obs) {
		t.Helper()
		srv := NewServer(h)
		srv.Obs = obs.New()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return addr, srv.Obs
	}

	t.Run("request", func(t *testing.T) {
		h := &countingHandler{resp: &Response{Rel: sampleRelation(1)}}
		addr, o := serve(t, h)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// A request whose Base is not a frame, in a well-formed message.
		good := message(t, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round})
		if _, err := conn.Write(corruptFrame(t, good, frameOf(t, sampleRelation(3)))); err != nil {
			t.Fatal(err)
		}
		body, err := readMessage(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Err, "malformed relation") || !strings.Contains(resp.Err, "truncated") {
			t.Errorf("corrupt frame answered %+v, want an error naming it", resp)
		}
		if n := h.calls.Load(); n != 0 {
			t.Errorf("malformed request reached the handler %d times", n)
		}
		if n := o.Metrics.CounterValue("transport.server.malformed"); n != 1 {
			t.Errorf("transport.server.malformed = %d, want 1", n)
		}
		// The message was read whole, so the connection serves on.
		if _, err := conn.Write(good); err != nil {
			t.Fatal(err)
		}
		if body, err = readMessage(conn, nil); err != nil {
			t.Fatalf("the connection did not survive the corrupt frame: %v", err)
		}
		if resp, err = decodeResponse(body); err != nil || resp.Err != "" || resp.frame.Len() != 1 || h.calls.Load() != 1 {
			t.Errorf("next request answered %+v, %v after %d handler calls", resp, err, h.calls.Load())
		}

		// A client refuses to send a relation without a frame at all.
		c, err := DialTCP("site0", addr, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Call(ctx, &Request{Op: OpEvalRounds, Base: shortRow(), Rounds: round}); err == nil || !strings.Contains(err.Error(), "row 0 has 1 values") {
			t.Errorf("sending a short row: %v, want an error naming it", err)
		}
		if n := h.calls.Load(); n != 1 {
			t.Errorf("the short row reached the handler")
		}
	})

	t.Run("reply", func(t *testing.T) {
		h := &countingHandler{resp: &Response{Rel: shortRow()}}
		addr, _ := serve(t, h)
		c, err := DialTCP("site1", addr, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		local := localClient(t, "site1", h, nil)
		for _, cl := range []Client{c, local} {
			for i := 0; i < 2; i++ { // the same connection answers again
				resp, err := cl.Call(ctx, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round})
				if err != nil || resp.Rel != nil || !strings.Contains(resp.Err, "row 0 has 1 values") {
					t.Errorf("%T call %d: got %+v, %v; want a site error naming the short row", cl, i, resp, err)
				}
			}
		}
	})

	// A reply whose relation is not a frame fails the call with
	// ErrMalformed inside the decode, a keyed reply and a states-only reply
	// alike, and the retry layer's next call is answered.
	t.Run("corrupt reply", func(t *testing.T) {
		for _, req := range []*Request{
			{Op: OpEvalRounds, Detail: "flow", BaseCols: []string{"k"}, Rounds: round},
			{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round},
		} {
			addr, _ := serveCorruptOnce(t, sampleRelation(2))
			cl := siteClient(t, SiteSpec{ID: "site0", Replicas: []Replica{{Addr: addr}}})
			if _, err := cl.Call(ctx, req); !errors.Is(err, relation.ErrMalformed) || !strings.Contains(err.Error(), "truncated") {
				t.Errorf("ShipsBase %v: a reply that is not a frame: %v, want ErrMalformed", req.ShipsBase(), err)
			}
			resp, err := cl.Call(ctx, req)
			if err != nil {
				t.Fatalf("ShipsBase %v: the next call: %v", req.ShipsBase(), err)
			}
			f, err := resp.Frame()
			if err != nil || f == nil || !reflect.DeepEqual(f.Relation(), sampleRelation(2)) {
				t.Errorf("ShipsBase %v: the next call answered %v, %v", req.ShipsBase(), f, err)
			}
		}
	})
}

// TestMalformedRelationFailsOnlyItsCall: a request is encoded whole before
// it is written and a reply read whole before it is decoded, so a request
// whose relation does not encode, or a reply whose frame does not decode,
// fails only its own call, and the next call on the same connection is
// answered. Every byte the client wrote or read is charged to one of the
// calls; a refused request writes none.
func TestMalformedRelationFailsOnlyItsCall(t *testing.T) {
	ctx := context.Background()
	round := []RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"F.SourceAS = B.SourceAS"}}}
	srv := NewServer(&countingHandler{resp: &Response{Rel: sampleRelation(2)}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	corrupt, _ := serveCorruptOnce(t, sampleRelation(2))
	for _, c := range []struct {
		what, addr string
		first      *Request
		want       string
	}{
		{"a refused request", addr, &Request{Op: OpEvalRounds, Base: shortRow(), Rounds: round}, "row 0 has 1 values"},
		{"a corrupt reply", corrupt, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round}, "truncated"},
	} {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			t.Fatal(err)
		}
		counted := &countingConn{Conn: conn}
		cl := newTCPClient("site0", counted, CostModel{})
		defer cl.Close()
		_, first, err := Exchange(ctx, cl, c.first)
		if !errors.Is(err, relation.ErrMalformed) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want ErrMalformed naming %q", c.what, err, c.want)
		}
		resp, next, err := Exchange(ctx, cl, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round})
		if err != nil {
			t.Fatalf("%s: the next call on the connection: %v", c.what, err)
		}
		if f, err := resp.Frame(); err != nil || !reflect.DeepEqual(f.Relation(), sampleRelation(2)) {
			t.Errorf("%s: the next call answered %v, %v", c.what, f, err)
		}
		if sent, recv := first.Sent+next.Sent, first.Recv+next.Recv; sent != counted.written || recv != counted.read {
			t.Errorf("%s: the calls were charged %d bytes sent and %d received, the client wrote %d and read %d",
				c.what, sent, recv, counted.written, counted.read)
		}
	}
}

// countingConn counts the bytes read from and written to a connection.
type countingConn struct {
	net.Conn
	read, written int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// TestMalformedReplyKeepsConnection: a reply whose relation is not a frame
// was read whole, so the stream is in sync and the retry layer retries
// over the same connection: two calls open one connection, and the first
// is answered after one retry.
func TestMalformedReplyKeepsConnection(t *testing.T) {
	addr, conns := serveCorruptOnce(t, sampleRelation(2))
	o := obs.New()
	cl := siteClient(t, SiteSpec{ID: "site0", Replicas: []Replica{{Addr: addr}}, Obs: o,
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond}})
	for i := 0; i < 2; i++ {
		resp, err := cl.Call(context.Background(), &Request{Op: OpPing})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if f, err := resp.Frame(); err != nil || !reflect.DeepEqual(f.Relation(), sampleRelation(2)) {
			t.Errorf("call %d answered %v, %v", i, f, err)
		}
	}
	if got := o.Metrics.CounterValue("transport.retries"); got != 1 {
		t.Errorf("transport.retries = %d, want 1: the corrupt reply's call", got)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("two calls opened %d connections, want 1", got)
	}
}

// serveCorruptOnce answers the first request it reads, on any connection,
// with a reply whose relation is not a frame, and every later one with
// rel. It returns its address and the count of connections it accepted.
func serveCorruptOnce(t *testing.T, rel *relation.Relation) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	good := message(t, &Response{Rel: rel})
	bad := corruptFrame(t, good, frameOf(t, rel))
	var served, conns atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				for {
					if _, err := readMessage(conn, nil); err != nil {
						return
					}
					reply := good
					if served.Add(1) == 1 {
						reply = bad
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), &conns
}

// TestEveryReplyArrivesAsFrame: every reply — to a states-only evaluation,
// a keyed one and a relInfo — reaches the caller as its frame, Rel nil,
// every other field as sent.
func TestEveryReplyArrivesAsFrame(t *testing.T) {
	rel := sampleRelation(20)
	sent := &Response{Rel: rel, RowCount: 7, ComputeNs: 99, Kept: []byte{0xff, 0xff, 0x0f}, Profile: &SiteProfile{RowsOut: 20, Outcome: OutcomeOK}}
	cl := localClient(t, "site0", &countingHandler{resp: sent}, nil)
	for _, req := range []*Request{
		{Op: OpEvalRounds, Base: sampleRelation(20)},
		{Op: OpEvalRounds, Detail: "flow", BaseCols: []string{"k"}},
		{Op: OpRelInfo, Rel: "flow"},
	} {
		resp, err := cl.Call(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rel != nil || resp.frame == nil {
			t.Errorf("%s: Rel %v, frame %v", req.Op, resp.Rel, resp.frame)
		}
		f, err := resp.Frame()
		if err != nil || !reflect.DeepEqual(f.Relation(), rel) {
			t.Errorf("%s: frame %v, %v", req.Op, f, err)
		}
		if resp.RowCount != 7 || resp.ComputeNs != 99 || !reflect.DeepEqual(resp.Kept, sent.Kept) || !reflect.DeepEqual(resp.Profile, sent.Profile) {
			t.Errorf("%s: got %+v, sent %+v", req.Op, resp, sent)
		}
	}
}

// TestFramedRepliesLeaveTheResponse: a server encodes the handler's Response
// as it is — a replay cache may hold it and hand it out again — and every
// copy arrives whole.
func TestFramedRepliesLeaveTheResponse(t *testing.T) {
	rel := sampleRelation(40)
	cached := &Response{Rel: rel, RowCount: 40}
	srv := NewServer(&countingHandler{resp: cached})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		resp, err := c.Call(context.Background(), &Request{Op: OpEvalRounds})
		if err != nil {
			t.Fatal(err)
		}
		if f, err := resp.Frame(); err != nil || !reflect.DeepEqual(f.Relation().Rows, rel.Rows) || resp.RowCount != 40 {
			t.Errorf("call %d: got %+v, %v", i, resp, err)
		}
	}
	if cached.Rel != rel || !reflect.DeepEqual(rel.Rows, sampleRelation(40).Rows) {
		t.Errorf("the handler's Response was modified: %+v", cached)
	}
}

// TestPreviousProtocolRefused: a request of the previous protocol, a gob
// stream, reaches no handler. The server refuses it at its first bytes,
// logging an error that names both versions, and closes the connection
// instead of answering.
func TestPreviousProtocolRefused(t *testing.T) {
	h := &countingHandler{resp: &Response{}}
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
	b, err := hex.DecodeString(gobRequest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	if msg := <-logged; !strings.Contains(msg, "protocol version 1; this build speaks version 2") {
		t.Errorf("server logged %q, want the two versions named", msg)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Errorf("the server answered a gob request: read %d bytes, %v", n, err)
	}
	if n := h.calls.Load(); n != 0 {
		t.Errorf("a gob request reached the handler %d times", n)
	}
}
