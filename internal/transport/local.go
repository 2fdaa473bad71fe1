package transport

//lint:wrap-errors transport failures must stay inspectable with errors.Is/As

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/relation"
)

// LocalClient connects the coordinator to an in-process site handler. It
// still round-trips every request and response through gob so that (a)
// byte accounting is identical to the TCP transport and (b) no memory is
// shared between coordinator and site, exactly as over a real network.
type LocalClient struct {
	id      string
	handler Handler
	cost    CostModel
	stats   WireStats
	// obs, set by the site builder before the client is shared, receives
	// the raw wire totals ("transport.bytes_sent",
	// "transport.bytes_received", "transport.messages"), mirroring the
	// TCP client so in-process clusters observe identically.
	obs *obs.Obs
}

// NewLocalClient returns a client calling handler directly, accounting
// traffic against the cost model.
func NewLocalClient(id string, handler Handler, cost CostModel) *LocalClient {
	return &LocalClient{id: id, handler: handler, cost: cost}
}

// SiteID implements Client.
func (c *LocalClient) SiteID() string { return c.id }

// Stats implements Client.
func (c *LocalClient) Stats() *WireStats { return &c.stats }

// Close implements Client; local clients hold no resources.
func (c *LocalClient) Close() error { return nil }

// Call implements Client. A cancellable context makes the call abandonable:
// the handler runs on its own goroutine and the call returns as soon as the
// context is done, exactly as a network client stops waiting for a hung
// site. The context is also passed to the handler, so — unlike a truly
// abandoned network peer — a context-aware handler (e.g. a relay tier)
// stops its own downstream work instead of finishing a discarded subtree
// in the background.
func (c *LocalClient) Call(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: %s: %w", c.id, err)
	}
	wireReq, n, err := roundTrip(req)
	if err != nil {
		return nil, fmt.Errorf("transport: encode request: %w", err)
	}
	c.stats.AddSent(n, c.cost)
	c.obs.Count("transport.bytes_sent", int64(n))
	c.obs.Count("transport.messages", 1)

	var resp *Response
	if ctx.Done() == nil {
		resp = c.handler.Handle(ctx, wireReq)
	} else {
		ch := make(chan *Response, 1)
		go func() { ch <- c.handler.Handle(ctx, wireReq) }()
		select {
		case resp = <-ch:
			// A context-aware handler answers the moment the context is
			// done, so both cases can be ready at once. The caller has
			// given up either way: report that, not whichever case the
			// select happened to pick.
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("transport: %s: %w", c.id, err)
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: %s: %w", c.id, ctx.Err())
		}
	}

	wireResp, n, err := roundTrip(resp)
	if errors.Is(err, relation.ErrMalformed) {
		wireResp, n, err = roundTrip(refusedReply(err))
	}
	if err != nil {
		return nil, fmt.Errorf("transport: encode response: %w", err)
	}
	c.stats.AddReceived(n, c.cost)
	c.obs.Count("transport.bytes_received", int64(n))
	return wireResp, nil
}

// roundTrip gob-encodes v and decodes it into a fresh value, returning
// the wire size.
func roundTrip[T any](v *T) (*T, int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, 0, err
	}
	n := buf.Len()
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}
