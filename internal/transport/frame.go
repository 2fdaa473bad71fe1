package transport

//lint:wrap-errors transport failures must stay inspectable with errors.Is/As

import (
	"errors"
	"fmt"

	"repro/internal/relation"
)

// packRequest returns the wire form of req (PROTOCOL.md, "Framing and
// encoding"): a shallow copy, since hedges and replays share req, that
// advertises frames and, once the peer has too (peer ≥ 1), carries Base and
// Data framed into buf. It returns the grown buf for the next message.
func packRequest(req *Request, peer int, buf []byte) (*Request, []byte) {
	w := *req
	w.Frame = relation.FrameVersion
	if peer >= 1 {
		buf = frame(&w.Base, &w.BaseFrame, buf[:0])
		buf = frame(&w.Data, &w.DataFrame, buf)
	}
	return &w, buf
}

// packResponse is packRequest for the answer to a request that advertised
// frame version peer; resp, which a replay cache may hold, is not changed.
func packResponse(resp *Response, peer int, buf []byte) (*Response, []byte) {
	if peer < 1 || resp == nil {
		return resp, buf
	}
	w := *resp
	w.Frame = relation.FrameVersion
	return &w, frame(&w.Rel, &w.RelFrame, buf[:0])
}

// frame moves *rel into *framed, appended to buf. A relation that cannot be
// framed stays in rows, for the receiver to refuse by name.
func frame(rel **relation.Relation, framed *[]byte, buf []byte) []byte {
	if *rel == nil || (*rel).Validate() != nil {
		return buf
	}
	at := len(buf)
	buf = relation.AppendFrame(buf, *rel)
	*rel, *framed = nil, buf[at:]
	return buf
}

// unpackRequest decodes a received request's frames and checks the relations
// that came as rows, and returns the frame version the sender advertised.
func unpackRequest(req *Request) (peer int, err error) {
	peer, req.Frame = req.Frame, 0
	if err = unframe(&req.Base, &req.BaseFrame); err == nil {
		err = unframe(&req.Data, &req.DataFrame)
	}
	if err != nil {
		return peer, fmt.Errorf("transport: malformed relation in request: %w", err)
	}
	return peer, nil
}

// unpackResponse is unpackRequest for a response.
func unpackResponse(resp *Response) error {
	resp.Frame = 0
	if err := unframe(&resp.Rel, &resp.RelFrame); err != nil {
		return fmt.Errorf("transport: malformed result relation: %w", err)
	}
	return nil
}

// unframe decodes *framed into *rel, or checks *rel if it came as rows.
func unframe(rel **relation.Relation, framed *[]byte) (err error) {
	switch {
	case *framed == nil && *rel != nil:
		err = (*rel).Validate()
	case *framed == nil:
	case *rel != nil:
		err = errors.New("sent both as rows and as a frame")
	default:
		*rel, err = relation.ReadFrame(*framed)
	}
	*framed = nil
	return err
}
