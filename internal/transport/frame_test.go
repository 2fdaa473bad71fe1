package transport

import (
	"context"
	"encoding/gob"
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
		local := NewLocalClient("site1", h, CostModel{})
		defer local.Close()
		for _, cl := range []Client{c, local} {
			for i := 0; i < 2; i++ { // the same connection answers again
				resp, err := cl.Call(ctx, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: round})
				if err != nil || resp.Rel != nil || !strings.Contains(resp.Err, "row 0 has 1 values") {
					t.Errorf("%T call %d: got %+v, %v; want a site error naming the short row", cl, i, resp, err)
				}
			}
		}
	})
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
		if !reflect.DeepEqual(resp.Rel.Rows, rel.Rows) || resp.RowCount != 40 {
			t.Errorf("call %d: got %+v", i, resp)
		}
	}
	if cached.Rel != rel || !reflect.DeepEqual(rel.Rows, sampleRelation(40).Rows) {
		t.Errorf("the handler's Response was modified: %+v", cached)
	}
}
