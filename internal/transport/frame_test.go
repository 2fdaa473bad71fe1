package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

// notAFrame gob-encodes as the bytes it holds: under the field name Base
// it stands in for a relation whose frame does not decode.
type notAFrame []byte

func (b notAFrame) GobEncode() ([]byte, error) { return b, nil }

// corruptRequest is a Request whose Base is not a frame.
type corruptRequest struct {
	Op     Op
	Base   notAFrame
	Rounds []RoundSpec
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
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		// A frame cut short: version 1, then a column count and nothing more.
		if err := enc.Encode(&corruptRequest{Op: OpEvalRounds, Base: notAFrame{1, 1}, Rounds: round}); err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := dec.Decode(&resp); err != nil {
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
		// gob consumed the whole message, so the connection serves on.
		if err := enc.Encode(&Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round}); err != nil {
			t.Fatal(err)
		}
		resp = Response{}
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("the connection did not survive the corrupt frame: %v", err)
		}
		if resp.Err != "" || resp.Rel.Len() != 1 || h.calls.Load() != 1 {
			t.Errorf("next request answered %+v after %d handler calls", resp, h.calls.Load())
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
			addr := serveCorruptOnce(t, sampleRelation(2))
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

// TestMalformedRelationFailsOnlyItsCall: gob reports a malformed relation
// with the stream still in sync, so a request it refuses to encode, or a
// reply whose frame does not decode, fails only its own call, and the next
// call on the same connection is answered. Every byte the client wrote is
// charged to one of the calls; a refused request writes none.
func TestMalformedRelationFailsOnlyItsCall(t *testing.T) {
	ctx := context.Background()
	round := []RoundSpec{{Detail: "flow", Aggs: [][]string{{"count(*) AS c"}}, Thetas: []string{"F.SourceAS = B.SourceAS"}}}
	srv := NewServer(&countingHandler{resp: &Response{Rel: sampleRelation(2)}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range []struct {
		what, addr string
		first      *Request
		want       string
	}{
		{"a refused request", addr, &Request{Op: OpEvalRounds, Base: shortRow(), Rounds: round}, "row 0 has 1 values"},
		{"a corrupt reply", serveCorruptOnce(t, sampleRelation(2)), &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round}, "truncated"},
	} {
		cl, err := DialTCP("site0", c.addr, CostModel{})
		if err != nil {
			t.Fatal(err)
		}
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
		if sent := first.Sent + next.Sent; sent != cl.cw.n {
			t.Errorf("%s: the calls were charged %d bytes sent, the client wrote %d", c.what, sent, cl.cw.n)
		}
	}
}

// corruptResponse is a Response whose Rel is not a frame.
type corruptResponse struct {
	Err string
	Rel notAFrame
}

// serveCorruptOnce answers the first request it reads, on any connection,
// with a reply whose relation is not a frame, and every later one with
// rel.
func serveCorruptOnce(t *testing.T, rel *relation.Relation) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var served atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
				for {
					var req Request
					if dec.Decode(&req) != nil {
						return
					}
					var reply any = &Response{Rel: rel}
					if served.Add(1) == 1 {
						reply = &corruptResponse{Rel: notAFrame{1, 1}}
					}
					if enc.Encode(reply) != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
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

// TestReplyMirrorsResponse: the struct every reply crosses the wire as has
// Response's exported fields, by name and in order, each of Response's
// type but Rel, which is a frame.
func TestReplyMirrorsResponse(t *testing.T) {
	var want []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Response{})) {
		if f.IsExported() {
			want = append(want, f)
		}
	}
	got := reflect.VisibleFields(reflect.TypeOf(reply{}))
	if len(got) != len(want) {
		t.Fatalf("reply has %d fields, Response %d exported", len(got), len(want))
	}
	for i, f := range want {
		typ := f.Type
		if f.Name == "Rel" {
			typ = reflect.TypeOf((*relation.Frame)(nil))
		}
		if got[i].Name != f.Name || got[i].Type != typ {
			t.Errorf("reply field %d is %s %s, want %s %s", i, got[i].Name, got[i].Type, f.Name, typ)
		}
	}
}

// TestRequestMirrorsRequest: the request mirror has Request's exported
// fields, by name, in order and of the same type (Data and Base framed),
// and wire copies every one of them: a field the mirror missed would be
// dropped from the wire, and a site would read its zero value.
func TestRequestMirrorsRequest(t *testing.T) {
	frameType := reflect.TypeOf((*relation.Frame)(nil))
	var want []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Request{})) {
		if f.IsExported() {
			want = append(want, f)
		}
	}
	got := reflect.VisibleFields(reflect.TypeOf(request{}))
	if len(got) != len(want) {
		t.Fatalf("request has %d fields, Request %d exported", len(got), len(want))
	}
	for i, f := range want {
		typ := f.Type
		if f.Name == "Data" || f.Name == "Base" {
			typ = frameType
		}
		if got[i].Name != f.Name || got[i].Type != typ {
			t.Errorf("request field %d is %s %s, want %s %s", i, got[i].Name, got[i].Type, f.Name, typ)
		}
	}

	req := Request{
		Op: OpEvalRounds, Rel: "t", Data: sampleRelation(3),
		Gen:      &GenSpec{Kind: "tpcr", Rel: "t", Params: map[string]int64{"rows": 10}, Site: 1, NumSites: 2},
		BaseCols: []string{"SourceAS"}, BaseWhere: "SourceAS > 1", Detail: "flows",
		Base: sampleRelation(5), SiteDisjoint: true,
		Rounds: []RoundSpec{{Detail: "flows", Aggs: [][]string{{"count(*) AS n"}}, Thetas: []string{"true"}}},
		Round:  2, QueryID: "q1",
	}
	w, err := req.wire()
	if err != nil {
		t.Fatal(err)
	}
	rv, wv := reflect.ValueOf(req), reflect.ValueOf(w)
	for _, f := range want {
		in, out := rv.FieldByIndex(f.Index), wv.FieldByName(f.Name)
		if in.IsZero() {
			t.Fatalf("the sample request leaves %s zero: set it, so that its copy is checked", f.Name)
		}
		if out.Type() == frameType {
			fr, rel := out.Interface().(*relation.Frame), in.Interface().(*relation.Relation)
			if fr == nil || !reflect.DeepEqual(fr.Relation().Rows, rel.Rows) {
				t.Errorf("wire frames %s as %v, want %v", f.Name, fr, rel)
			}
			continue
		}
		if !reflect.DeepEqual(out.Interface(), in.Interface()) {
			t.Errorf("wire copies %s as %v, want %v", f.Name, out.Interface(), in.Interface())
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
