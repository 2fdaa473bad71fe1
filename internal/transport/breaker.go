package transport

//lint:wrap-errors breaker refusals must stay inspectable with errors.Is

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrBreakerOpen is returned (wrapped) when a call is refused because the
// site's circuit breaker is open: the site has failed or shed enough
// consecutive calls that sending more work would only waste deadline
// budget. The refusal is local — nothing touches the wire.
var ErrBreakerOpen = errors.New("transport: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int

// The three classic breaker states.
const (
	// BreakerClosed: traffic flows normally; consecutive failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: all calls are refused locally until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is allowed through; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

// String returns the conventional lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is a per-site circuit breaker: Failures consecutive failures or
// sheds open it, refusing further calls locally for Cooldown; after the
// cooldown one probe is let through, and its outcome closes the breaker
// (success) or re-opens it for another cooldown (failure). It complements
// the AIMD SiteGate: the gate shrinks how much concurrent work a slow
// site receives, the breaker stops sending entirely to a dead one.
//
// Context cancellations and propagated-deadline expiries are neutral —
// they are the caller's budget running out, not evidence about the site —
// so a storm of coordinator-side timeouts cannot open a healthy site's
// breaker.
type Breaker struct {
	site     string
	failures int
	cooldown time.Duration
	obs      *obs.Obs
	// now is injectable for tests; defaults to time.Now.
	now func() time.Time

	mu sync.Mutex
	//lint:guarded-by mu
	state BreakerState
	//lint:guarded-by mu
	consecutive int
	//lint:guarded-by mu
	openedAt time.Time
	// probing marks the half-open probe as in flight, so concurrent
	// callers are refused until the probe's verdict is in.
	//
	//lint:guarded-by mu
	probing bool
}

// NewBreaker returns a closed breaker for site, opening after failures
// consecutive failures and probing again after cooldown. State
// transitions are published to o as events (kind obs.EventBreaker) and
// the "transport.breaker_open" / "transport.breaker_rejected" counters.
func NewBreaker(site string, failures int, cooldown time.Duration, o *obs.Obs) *Breaker {
	return &Breaker{site: site, failures: failures, cooldown: cooldown, obs: o, now: time.Now}
}

// SetNow overrides the clock (tests drive state transitions with virtual
// time).
func (b *Breaker) SetNow(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// State returns the breaker's current position, accounting for an
// elapsed cooldown (an open breaker whose cooldown has passed reports
// half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Allow reports whether a call may proceed. An open breaker past its
// cooldown transitions to half-open and grants exactly one probe;
// concurrent calls during the probe are refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.obs.Count("transport.breaker_rejected", 1)
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.eventLocked("half-open", "cooldown elapsed; probing")
		return true
	case BreakerHalfOpen:
		if b.probing {
			b.obs.Count("transport.breaker_rejected", 1)
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Success records a successful call: it closes a half-open breaker and
// resets the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.state = BreakerClosed
		b.eventLocked("closed", "probe succeeded")
	}
}

// Failure records a failed or shed call: it counts toward the
// consecutive-failure threshold in closed state and re-opens a half-open
// breaker immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.failures {
			b.openLocked("consecutive failure threshold reached")
		}
	case BreakerHalfOpen:
		b.openLocked("probe failed")
	}
}

// Neutral records a call whose outcome says nothing about the site
// (caller-side cancellation, propagated-deadline expiry, hedge-lost
// cancellation): it releases a half-open probe slot without a verdict so
// the next call probes again, and leaves the failure count untouched.
func (b *Breaker) Neutral() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// openLocked transitions to open; callers hold b.mu.
func (b *Breaker) openLocked(why string) {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.consecutive = 0
	b.obs.Count("transport.breaker_open", 1)
	b.eventLocked("open", why)
}

// eventLocked publishes one transition; callers hold b.mu.
func (b *Breaker) eventLocked(to, why string) {
	b.obs.Event(obs.EventBreaker, b.site, "breaker "+to+": "+why,
		map[string]string{"state": to, "threshold": strconv.Itoa(b.failures)})
}

// Observe classifies one finished call for the breaker: transport errors
// and shed responses are failures, caller-side cancellations and expired
// propagated deadlines are neutral, everything else is a success. Plain
// site-side errors (a bad query) count as success for breaker purposes —
// the site is answering, which is all the breaker measures.
func (b *Breaker) Observe(ctx context.Context, resp *Response, err error) {
	switch {
	case err != nil:
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			b.Neutral()
			return
		}
		b.Failure()
	case resp.Shed():
		b.Failure()
	case resp != nil && resp.Code == CodeExpired:
		b.Neutral()
	default:
		b.Success()
	}
}

// breakerClient wraps a site client with a breaker: an open breaker
// refuses the call locally with a typed error wrapping ErrBreakerOpen,
// and every completed call feeds the breaker's state machine.
type breakerClient struct {
	Client
	breaker *Breaker
}

// Call implements Client.
func (c *breakerClient) Call(ctx context.Context, req *Request) (*Response, error) {
	if !c.breaker.Allow() {
		return nil, fmt.Errorf("transport: %s: %w", c.SiteID(), ErrBreakerOpen)
	}
	resp, err := c.Client.Call(ctx, req)
	c.breaker.Observe(ctx, resp, err)
	return resp, err
}
