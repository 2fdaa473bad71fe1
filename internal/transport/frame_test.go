package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// gobServer answers every connection to a fresh loopback listener with
// serve, which reads and writes the connection's gob streams until it
// returns; conn numbers the connections from 0. Everything closes with the
// test.
func gobServer(t *testing.T, serve func(conn int, dec *gob.Decoder, enc *gob.Encoder) error) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				defer c.Close()
				serve(n, gob.NewDecoder(c), gob.NewEncoder(c))
			}(n)
		}
	}()
	return l.Addr().String()
}

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

// TestMalformedRelationRefused: a relation decoded from gob rows whose row
// is narrower than its schema is refused in both directions — a site would
// otherwise put the count of a one-value base row in DestAS and answer with
// shifted columns. The request is answered with an error and never reaches
// the handler; the response fails the call and is never merged.
func TestMalformedRelationRefused(t *testing.T) {
	ctx := context.Background()
	round := []RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"F.SourceAS = B.SourceAS"}}}

	h := &countingHandler{resp: &Response{Rel: sampleRelation(1)}}
	srv := NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP("site0", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The first exchange on a connection ships rows, so it carries the
	// malformed base as the sender wrote it.
	resp, err := c.Call(ctx, &Request{Op: OpEvalRounds, Base: shortRow(), Rounds: round})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "row 0 has 1 values") {
		t.Errorf("malformed request answered %+v, want an error naming the short row", resp)
	}
	if n := h.calls.Load(); n != 0 {
		t.Errorf("malformed request reached the handler %d times", n)
	}

	// A pre-frame site answering with the short row, and a current server
	// whose handler returns it (it cannot be framed, so it goes as rows).
	legacy := gobServer(t, func(_ int, dec *gob.Decoder, enc *gob.Encoder) error {
		for {
			var req legacyRequest
			if err := dec.Decode(&req); err != nil {
				return err
			}
			if err := enc.Encode(&legacyResponse{Rel: shortRow()}); err != nil {
				return err
			}
		}
	})
	bad := NewServer(&countingHandler{resp: &Response{Rel: shortRow()}})
	current, err := bad.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	for _, addr := range []string{legacy, current} {
		c, err := DialTCP("site1", addr, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // rows first, then after negotiation
			resp, err := c.Call(ctx, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round})
			if err == nil || !strings.Contains(err.Error(), "malformed result relation") {
				t.Errorf("call %d to %s: got %+v, %v; want the malformed result refused", i, addr, resp, err)
			}
		}
		c.Close()
	}
}

// TestPreFrameSite: a site from before frames never advertises them, so a
// new client keeps shipping rows to it on every call and reads its rows.
func TestPreFrameSite(t *testing.T) {
	var rows, calls atomic.Int64
	addr := gobServer(t, func(_ int, dec *gob.Decoder, enc *gob.Encoder) error {
		for {
			var req legacyRequest
			if err := dec.Decode(&req); err != nil {
				return err
			}
			calls.Add(1)
			if req.Base != nil {
				rows.Add(1)
			}
			if err := enc.Encode(&legacyResponse{Rel: req.Base}); err != nil {
				return err
			}
		}
	})
	c, err := DialTCP("old", addr, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 4; i++ {
		base := sampleRelation(10 * i)
		resp, err := c.Call(context.Background(), &Request{Op: OpEvalRounds, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Rel.Rows, base.Rows) {
			t.Errorf("call %d: the pre-frame site's reply differs from what it was sent", i)
		}
	}
	if rows.Load() != 4 || calls.Load() != 4 {
		t.Errorf("the pre-frame site read a base in %d of %d requests, want every one", rows.Load(), calls.Load())
	}
}

// TestOldClientGetsRows: a coordinator from before frames never advertises
// them, so a new server answers it in rows, with no frame field set, on
// every exchange of the connection.
func TestOldClientGetsRows(t *testing.T) {
	srv := NewServer(newEchoHandler())
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
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	sent := sampleRelation(20)
	for i, req := range []legacyRequest{{Op: OpLoad, Rel: "t", Data: sent}, {Op: OpRelInfo, Rel: "t"}, {Op: OpRelInfo, Rel: "t"}} {
		if err := enc.Encode(&req); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Frame != 0 || resp.RelFrame != nil {
			t.Errorf("exchange %d: the old client got Frame %d and a %d-byte RelFrame", i, resp.Frame, len(resp.RelFrame))
		}
		if req.Op == OpRelInfo && (resp.Rel == nil || !reflect.DeepEqual(resp.Rel.Rows, sent.Rows)) {
			t.Errorf("exchange %d: rows %v, want the loaded relation", i, resp.Rel)
		}
	}
}

// spy is a server speaking the current protocol by hand: it records, per
// connection, whether each request's base came as rows or as a frame, and
// advertises frames in every reply.
type spy struct {
	mu     sync.Mutex
	framed map[int][]bool // connection → per request, framed?
	// hold, when set, runs before the nth request of connection conn is
	// answered; returning false drops the connection unanswered.
	hold func(conn, n int) bool
}

func (s *spy) serve(conn int, dec *gob.Decoder, enc *gob.Encoder) error {
	for n := 0; ; n++ {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return err
		}
		s.mu.Lock()
		if s.framed == nil {
			s.framed = map[int][]bool{}
		}
		s.framed[conn] = append(s.framed[conn], req.BaseFrame != nil)
		s.mu.Unlock()
		if s.hold != nil && !s.hold(conn, n) {
			return errors.New("dropped")
		}
		if _, err := unpackRequest(&req); err != nil {
			return err
		}
		if err := enc.Encode(&Response{Rel: req.Base, Frame: relation.FrameVersion}); err != nil {
			return err
		}
	}
}

// check demands that every connection shipped its first request as rows
// and every later one as a frame, and returns how many connections and
// framed requests it saw.
func (s *spy) check(t *testing.T) (conns, framed int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn, reqs := range s.framed {
		for n, f := range reqs {
			if f != (n > 0) {
				t.Errorf("connection %d request %d: framed=%v", conn, n, f)
			}
			if f {
				framed++
			}
		}
	}
	return len(s.framed), framed
}

// TestFrameNegotiationPerConnection: frames are negotiated per connection,
// so a redialed connection and every pooled one ship their first request
// as rows again — and the caller's request is never modified.
func TestFrameNegotiationPerConnection(t *testing.T) {
	ctx := context.Background()
	req := &Request{Op: OpEvalRounds, Base: sampleRelation(30)}
	call := func(t *testing.T, c Client) {
		t.Helper()
		resp, err := c.Call(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Rel.Rows, sampleRelation(30).Rows) {
			t.Error("reply differs from the base sent")
		}
		if req.Frame != 0 || req.BaseFrame != nil || req.Base == nil {
			t.Errorf("the caller's request was modified: %+v", req)
		}
	}

	t.Run("redial", func(t *testing.T) {
		// The first connection is dropped at its third request; the retry
		// redials and negotiates afresh.
		s := &spy{hold: func(conn, n int) bool { return conn != 0 || n != 2 }}
		addr := gobServer(t, s.serve)
		rc := NewReconnector("s", func() (Client, error) { return DialTCP("s", addr, CostModel{}) }, 2, 0)
		defer rc.Close()
		for i := 0; i < 5; i++ {
			call(t, rc)
		}
		if conns, framed := s.check(t); conns != 2 || framed < 3 {
			t.Errorf("%d connections, %d framed requests; want 2 and at least 3", conns, framed)
		}
	})

	t.Run("pool", func(t *testing.T) {
		// The first request of each of two connections is held until both
		// are in, so the pool has to dial twice.
		var arrived sync.WaitGroup
		arrived.Add(2)
		s := &spy{hold: func(conn, n int) bool {
			if n == 0 && conn < 2 {
				arrived.Done()
				arrived.Wait()
			}
			return true
		}}
		addr := gobServer(t, s.serve)
		pool := NewPool("s", 2, func() (Client, error) { return DialTCP("s", addr, CostModel{}) }, nil)
		defer pool.Close()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := pool.Lease().Call(ctx, req); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			call(t, pool.Lease())
		}
		if conns, framed := s.check(t); conns != 2 || framed != 4 {
			t.Errorf("%d connections, %d framed requests; want 2 and 4", conns, framed)
		}
	})
}

// TestFramedRepliesLeaveTheResponse: a server frames the reply it sends,
// not the handler's Response, which a replay cache may hold and hand out
// again.
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
		if !reflect.DeepEqual(resp.Rel.Rows, rel.Rows) || resp.Frame != 0 || resp.RelFrame != nil {
			t.Errorf("call %d: got %+v", i, resp)
		}
	}
	if cached.Rel != rel || cached.Frame != 0 || cached.RelFrame != nil {
		t.Errorf("the handler's Response was modified: %+v", cached)
	}
}
