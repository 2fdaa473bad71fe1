package transport

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// envelopeAllocBound bounds what reading and decoding n bytes may
// allocate: the body, and the relations it holds boxed, within the bound
// relation's FuzzFrame sets a frame.
func envelopeAllocBound(n int) uint64 { return 2048*uint64(n) + 256<<10 }

// FuzzEnvelope: reading and decoding arbitrary bytes, as a request and as a
// reply, never panics and allocates within envelopeAllocBound; a message
// that decodes re-encodes to the same bytes, a request even once its body
// is overwritten.
func FuzzEnvelope(f *testing.F) {
	for _, msg := range [][]byte{
		message(f, sampleRequest()),
		message(f, sampleResponse()),
		message(f, &Request{Op: OpPing}),
		message(f, &Response{}),
		message(f, &Request{Op: OpEvalRounds, Base: sampleRelation(3), Rounds: sampleRounds()}),
		corruptFrame(f, message(f, &Response{Rel: sampleRelation(2)}), frameOf(f, sampleRelation(2))),
	} {
		f.Add(msg)
	}
	for _, stream := range []string{gobRequest, gobReply} {
		b, err := hex.DecodeString(stream)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		body, err := readMessage(bytes.NewReader(b), nil)
		var (
			req     *Request
			resp    *Response
			reqErr  error
			respErr error
		)
		if err == nil {
			req, reqErr = decodeRequest(body)
			resp, respErr = decodeResponse(body)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > envelopeAllocBound(len(b)) {
			t.Fatalf("reading %d bytes allocated %d", len(b), got)
		}
		if err != nil {
			return
		}
		msg := b[:prefixLen+len(body)]
		if respErr == nil {
			if got := message(t, resp); !bytes.Equal(got, msg) {
				t.Fatalf("reply\n% x\nre-encodes as\n% x", msg, got)
			}
		}
		if reqErr == nil {
			// A decoded request owns no byte of its body: a server
			// connection reads its next request into the same buffer.
			for i := range body {
				body[i] = 0xFF
			}
			if got := message(t, req); !bytes.Equal(got, msg) {
				t.Fatalf("request\n% x\nre-encodes, its body overwritten, as\n% x", msg, got)
			}
		}
	})
}

// TestWarmReadAllocatesNothing: a server connection reads each request into
// the body it kept from the one before, so once that buffer has grown to
// a message's size, reading the message allocates nothing.
func TestWarmReadAllocatesNothing(t *testing.T) {
	msg := message(t, &Request{Op: OpEvalRounds, Base: sampleRelation(50), Rounds: sampleRounds()})
	r := bytes.NewReader(msg)
	buf, err := readMessage(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		r.Reset(msg)
		if buf, err = readMessage(r, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("reading a %d-byte message into a warm buffer allocates %.0f objects", len(msg), n)
	}
	if !bytes.Equal(buf, msg[prefixLen:]) {
		t.Errorf("read\n% x\nwant\n% x", buf, msg[prefixLen:])
	}
}
