package transport

//lint:wrap-errors pool failures must stay inspectable with errors.Is/As

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Pool multiplexes concurrent executions over a bounded set of
// connections to one replica of a site. One TCP connection (or Reconnector)
// serializes its calls, so a coordinator that runs many queries at once
// against the same site would otherwise serialize every round on a single
// stream; the pool dials up to Max connections lazily and hands each call
// an idle one, queueing callers when every connection is busy — the
// pool's capacity is the site's client-side in-flight ceiling.
//
// A Pool is a Client: concurrent executions call it directly, each call
// borrowing whichever pooled connection is free, so connections are
// shared across concurrent epochs while each call's bytes travel with the
// call itself (see Exchange).
//
// Cancellation is isolated per call: cancelling one execution's context
// aborts only the connection its call borrowed (the broken connection is
// discarded, not returned), so a sibling execution's in-flight exchanges
// on other pooled connections are untouched.
type Pool struct {
	id   string
	dial func() (Client, error)
	max  int
	obs  *obs.Obs

	slots chan struct{} // capacity tokens; one per potential connection

	mu sync.Mutex
	//lint:guarded-by mu
	idle []Client
	// dialed counts connections currently alive (idle or borrowed).
	//
	//lint:guarded-by mu
	dialed int
	//lint:guarded-by mu
	closed bool
}

// NewPool returns a pool of at most max concurrent connections to the
// site identified by id, dialing lazily with dial. max < 1 is treated
// as 1. Pool activity is published into o: "transport.pool.dials",
// "transport.pool.discards", and the "transport.pool.in_use" gauge.
func NewPool(id string, max int, dial func() (Client, error), o *obs.Obs) *Pool {
	if max < 1 {
		max = 1
	}
	return &Pool{id: id, dial: dial, max: max, obs: o, slots: make(chan struct{}, max)}
}

// InUse reports how many connections are currently borrowed by calls.
func (p *Pool) InUse() int { return len(p.slots) }

// get borrows a connection, dialing a new one when under capacity and
// blocking (context-aware) when every connection is busy.
func (p *Pool) get(ctx context.Context) (Client, error) {
	select {
	case p.slots <- struct{}{}:
	default:
		// Every connection is busy: the caller queues at the site
		// boundary until one frees or its context gives up.
		p.obs.Count("transport.pool.waits", 1)
		select {
		case p.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: pool %s: %w", p.id, ctx.Err())
		}
	}
	p.obs.SetGauge("transport.pool.in_use", int64(len(p.slots)))

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.slots
		return nil, fmt.Errorf("transport: pool %s is closed", p.id)
	}
	if n := len(p.idle); n > 0 {
		cl := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return cl, nil
	}
	p.mu.Unlock()

	cl, err := p.dial()
	if err != nil {
		<-p.slots
		p.obs.Count("transport.pool.dial_failures", 1)
		return nil, fmt.Errorf("transport: pool %s: dial: %w", p.id, err)
	}
	p.mu.Lock()
	p.dialed++
	p.mu.Unlock()
	p.obs.Count("transport.pool.dials", 1)
	return cl, nil
}

// put returns a healthy connection to the idle set.
func (p *Pool) put(cl Client) {
	p.mu.Lock()
	if p.closed {
		p.dialed--
		p.mu.Unlock()
		cl.Close()
	} else {
		p.idle = append(p.idle, cl)
		p.mu.Unlock()
	}
	<-p.slots
	p.obs.SetGauge("transport.pool.in_use", int64(len(p.slots)))
}

// discard drops a connection whose last exchange failed: its stream may
// be desynced (or its context-cancelled deadline poke left it broken), so
// the next borrower gets a fresh dial instead.
func (p *Pool) discard(cl Client) { p.discardAs(cl, "transport.pool.discards") }

// hedgeDiscard drops a connection whose exchange was abandoned because
// its hedge lost the race. The teardown is identical to discard — the
// cancelled stream is desynced — but the count lands under a dedicated
// counter: a lost hedge is planned speculative waste, and folding it
// into generic discards would make healthy hedging look like connection
// churn.
func (p *Pool) hedgeDiscard(cl Client) { p.discardAs(cl, "transport.pool.hedge_discards") }

func (p *Pool) discardAs(cl Client, counter string) {
	cl.Close()
	p.mu.Lock()
	p.dialed--
	p.mu.Unlock()
	<-p.slots
	p.obs.Count(counter, 1)
	p.obs.SetGauge("transport.pool.in_use", int64(len(p.slots)))
}

// Close implements Client: it closes every idle connection and fails
// subsequent borrows.
// Borrowed connections are closed as their calls return them.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.dialed -= len(idle)
	p.mu.Unlock()
	var first error
	for _, cl := range idle {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SiteID implements Client.
func (p *Pool) SiteID() string { return p.id }

// Call implements Client: borrow a pooled connection, perform one
// exchange, charge its traffic to the call, and return the connection
// (discarding it after a transport failure).
func (p *Pool) Call(ctx context.Context, req *Request) (*Response, error) {
	cl, err := p.get(ctx)
	if err != nil {
		return nil, err
	}
	resp, d, err := Exchange(ctx, cl, req)
	if err != nil && errors.Is(context.Cause(ctx), ErrHedgeLost) {
		// The exchange was abandoned because its hedge lost the race: the
		// partial traffic is the replica layer's speculative waste (it counts the
		// bytes under hedge_wasted_bytes), so charging it to the call
		// would double-count it into the execution's round bytes; the
		// torn connection is a hedge discard, not generic churn.
		p.hedgeDiscard(cl)
		return nil, err
	}
	charge(ctx, d)
	if err != nil {
		p.discard(cl)
		return nil, err
	}
	p.put(cl)
	return resp, nil
}
