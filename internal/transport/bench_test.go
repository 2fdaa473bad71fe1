package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

func BenchmarkLocalRoundTrip(b *testing.B) {
	c := pipeRetry("s", newEchoHandler(), nil)
	defer c.Close()
	req := &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(200)}
	_, d, err := Exchange(context.Background(), c, req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(d.Sent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(200)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPingLatency(b *testing.B) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP("s", addr, CostModel{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := &Request{Op: OpPing}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// codecShapes are the relations of one round-2 exchange of the
// shuffle_highcard benchmark workload at one site: the request ships 1 970
// customer names, the reply one row of count/sum/count states for each.
func codecShapes() (req *Request, resp *Response) {
	base := relation.New(relation.MustSchema(relation.Column{Name: "CustName", Kind: value.KindString}))
	states := relation.New(relation.MustSchema(
		relation.Column{Name: "cnt2__p0", Kind: value.KindInt},
		relation.Column{Name: "avg2__p0", Kind: value.KindFloat},
		relation.Column{Name: "avg2__p1", Kind: value.KindInt},
	))
	for i := 0; i < 1970; i++ {
		base.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", 4*i+1)))
		n := int64(i%23 + 1)
		states.MustAppend(value.NewInt(n), value.NewFloat(float64(n)*0.0625*float64(i%7)), value.NewInt(n))
	}
	return &Request{Op: OpEvalRounds, Base: base}, &Response{Rel: states}
}

// BenchmarkRelationCodec encodes and decodes one message of the envelope,
// as a connection does, and reports the message's wire bytes.
func BenchmarkRelationCodec(b *testing.B) {
	req, resp := codecShapes()
	b.Run("request", func(b *testing.B) {
		benchCodec(b, func(e *codec) error { return encodeRequest(e, req) }, func(body []byte) error {
			_, err := decodeRequest(body)
			return err
		})
	})
	b.Run("reply", func(b *testing.B) {
		benchCodec(b, func(e *codec) error { encodeResponse(e, resp); return nil }, func(body []byte) error {
			_, err := decodeResponse(body)
			return err
		})
	})
}

func benchCodec(b *testing.B, encode func(*codec) error, decode func([]byte) error) {
	var stream bytes.Buffer
	round := func() int {
		e := newMessage()
		defer e.free()
		err := encode(e)
		if err == nil {
			err = e.finish()
		}
		stream.Write(e.b)
		n := stream.Len()
		var body []byte
		if err == nil {
			body, err = readMessage(&stream, nil)
		}
		if err == nil {
			err = decode(body)
		}
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = round()
	}
	b.ReportMetric(float64(n), "wire-B/op")
}

// BenchmarkPoolCall is one pooled ping: a pool of 4 over in-process
// clients, called sequentially through Exchange as the replica layer calls
// it.
func BenchmarkPoolCall(b *testing.B) {
	h := newEchoHandler()
	p := NewPool("s", 4, func() Client { return pipeRetry("s", h, nil) }, nil)
	defer p.Close()
	req := &Request{Op: OpPing}
	// Dial the pooled connection before the timer starts.
	if _, _, err := Exchange(context.Background(), p, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Exchange(context.Background(), p, req); err != nil {
			b.Fatal(err)
		}
	}
}
