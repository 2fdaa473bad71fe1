package transport

//lint:wrap-errors gate refusals must stay inspectable with errors.Is

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// SiteGate is an AIMD concurrency window for one site, shared by every
// execution calling it. A shed response halves the window (multiplicative
// decrease — the site told us to back off), and a full window of
// consecutive successes grows it by one (additive increase), so
// throughput re-probes upward only as fast as the site keeps absorbing
// it. There is no timer: recovery is driven by successful responses,
// which keeps the gate deterministic under test.
type SiteGate struct {
	site string
	max  int
	obs  *obs.Obs

	mu sync.Mutex
	//lint:guarded-by mu
	window int
	//lint:guarded-by mu
	inUse int
	//lint:guarded-by mu
	streak int
	// wake is closed and replaced whenever capacity may free.
	//
	//lint:guarded-by mu
	wake chan struct{}
}

// NewSiteGate returns a gate for site with the given window ceiling
// (values < 1 are treated as 1). The window starts fully open. Waits and
// backoffs are published to o ("sched.site_gate_waits",
// "sched.site_backoffs").
func NewSiteGate(site string, max int, o *obs.Obs) *SiteGate {
	if max < 1 {
		max = 1
	}
	return &SiteGate{site: site, max: max, obs: o, window: max, wake: make(chan struct{})}
}

// Window reports the current concurrency window.
func (g *SiteGate) Window() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.window
}

// Acquire blocks until the site's window has room or ctx is done.
func (g *SiteGate) Acquire(ctx context.Context) error {
	for {
		g.mu.Lock()
		if g.inUse < g.window {
			g.inUse++
			g.mu.Unlock()
			return nil
		}
		wake := g.wake
		g.mu.Unlock()
		g.obs.Count("sched.site_gate_waits", 1)
		select {
		case <-wake:
		case <-ctx.Done():
			return fmt.Errorf("transport: site %s gate: %w", g.site, ctx.Err())
		}
	}
}

// Release returns one acquisition, adjusting the window: shed marks the
// call as refused by the site (overloaded or draining), everything else
// counts toward reopening it.
func (g *SiteGate) Release(shed bool) {
	g.mu.Lock()
	g.inUse--
	if shed {
		g.streak = 0
		if g.window > 1 {
			g.window /= 2
		}
		g.obs.Count("sched.site_backoffs", 1)
		g.obs.Event(obs.EventOverload, g.site, "site shed: concurrency window halved",
			map[string]string{"window": fmt.Sprint(g.window)})
	} else {
		g.streak++
		if g.streak >= g.window && g.window < g.max {
			g.window++
			g.streak = 0
		}
	}
	close(g.wake)
	g.wake = make(chan struct{})
	g.mu.Unlock()
}

// gatedClient threads every Call through the site's backpressure gate.
type gatedClient struct {
	Client
	gate *SiteGate
}

// Call implements Client: acquire the site window, perform the exchange,
// and classify the outcome for the AIMD window. Only an explicit shed
// response shrinks the window — transport failures mean the site is
// unreachable, not overloaded, and are the retry layer's problem.
func (c *gatedClient) Call(ctx context.Context, req *Request) (*Response, error) {
	if err := c.gate.Acquire(ctx); err != nil {
		return nil, err
	}
	resp, err := c.Client.Call(ctx, req)
	c.gate.Release(resp.Shed())
	return resp, err
}
