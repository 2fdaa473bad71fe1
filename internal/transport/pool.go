package transport

//lint:wrap-errors pool failures must stay inspectable with errors.Is/As

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Pool multiplexes concurrent executions over a bounded set of clients of
// one replica of a site. One client serializes its calls, so a coordinator
// that runs many queries at once against the same site would otherwise
// serialize every round on a single stream; the pool makes up to max
// clients lazily and lends each call an idle one, queueing callers when
// every client is busy — the pool's capacity is the site's client-side
// in-flight ceiling.
//
// The pool only lends: the clients it makes heal themselves (the retry
// layer drops a connection a failed or cancelled call broke and redials it
// on its next call), so a client comes back to the idle set however its
// call ended, and the pool closes clients only once it is closed itself:
// then every one, lent or idle, so a call in flight ends too.
// Each call's bytes travel with the call (see Exchange), charged by the
// layers beneath, so the pool meters nothing.
//
// Cancellation is isolated per call: cancelling one execution's context
// aborts only the call on the client it borrowed, so a sibling execution's
// in-flight exchanges on other pooled clients are untouched.
type Pool struct {
	id        string
	newClient func() Client
	obs       *obs.Obs

	slots chan struct{} // capacity tokens; one per potential client

	mu sync.Mutex
	// made holds every client the pool made, lent or idle.
	//
	//lint:guarded-by mu
	made []Client
	//lint:guarded-by mu
	idle []Client
	//lint:guarded-by mu
	closed bool
}

// NewPool returns a pool of at most size concurrent clients of the site
// identified by id, making them lazily with newClient. size < 1 is treated
// as 1. Pool activity is published into o: "transport.pool.dials" (clients
// made), "transport.pool.waits", and the "transport.pool.in_use" gauge.
func NewPool(id string, size int, newClient func() Client, o *obs.Obs) *Pool {
	return &Pool{id: id, newClient: newClient, obs: o, slots: make(chan struct{}, max(size, 1))}
}

// get borrows a client, making a new one when none is idle and blocking
// (context-aware) when every client is busy.
func (p *Pool) get(ctx context.Context) (Client, error) {
	select {
	case p.slots <- struct{}{}:
	default:
		// Every client is busy: the caller queues at the site boundary
		// until one frees or its context gives up.
		p.obs.Count("transport.pool.waits", 1)
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: pool %s: %w", p.id, ctx.Err())
		}
	}
	p.obs.SetGauge("transport.pool.in_use", int64(len(p.slots)))

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		<-p.slots
		return nil, fmt.Errorf("transport: pool %s: %w", p.id, ErrClosed)
	}
	if n := len(p.idle); n > 0 {
		cl := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return cl, nil
	}
	p.obs.Count("transport.pool.dials", 1)
	cl := p.newClient()
	p.made = append(p.made, cl)
	return cl, nil
}

// put returns a borrowed client to the idle set, unless the pool was
// closed while it was out (and closed it).
func (p *Pool) put(cl Client) {
	p.mu.Lock()
	if !p.closed {
		p.idle = append(p.idle, cl)
	}
	p.mu.Unlock()
	<-p.slots
	p.obs.SetGauge("transport.pool.in_use", int64(len(p.slots)))
}

// Close implements Client: it closes every client, idle or lent — a call
// in flight on one fails with ErrClosed — and fails subsequent borrows.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	made := p.made
	p.made, p.idle = nil, nil
	p.mu.Unlock()
	var first error
	for _, cl := range made {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SiteID implements Client.
func (p *Pool) SiteID() string { return p.id }

// Call implements Client: borrow a pooled client, perform one call on it,
// and return it.
func (p *Pool) Call(ctx context.Context, req *Request) (*Response, error) {
	cl, err := p.get(ctx)
	if err != nil {
		return nil, err
	}
	defer p.put(cl)
	return cl.Call(ctx, req)
}
