package transport

//lint:deterministic retry backoff uses only the per-site seeded rng
//lint:wrap-errors transport failures must stay inspectable with errors.Is/As

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Reconnector wraps a logical site with transparent reconnect-and-retry on
// transport failures (broken TCP connections, site restarts) and replica
// failover: the logical site is backed by an ordered list of endpoints,
// and when retries against the current endpoint are exhausted the call is
// transparently re-issued to the next replica. Re-issuing a request to a
// replica is safe because every protocol exchange is idempotent — only
// partial aggregate state and queries in wire form are shipped, never
// detail data, so repeating a round recomputes the same sub-aggregates
// (see PROTOCOL.md, "Timeouts, cancellation, and failover").
//
// Site-side errors (Response.Err) are deterministic results of the request
// and are never retried — only transport-level Call errors are. Context
// cancellation and deadline expiry also stop retrying immediately: the
// caller gave up, so burning further attempts (or failing over) is wasted
// work.
//
// Retries back off exponentially with full jitter from a deterministic
// per-site seed: delay n is uniform in [base·2ⁿ/2, base·2ⁿ], capped at
// MaxBackoff. A call charges its exchange (see Exchange) with the
// answered attempt's traffic alone, whichever connection or replica
// carried it, plus the re-sends it needed (Delta.Retries), which is how a
// round learns it was retried. This is
// the only layer that re-sends a failed call: the coordinator never
// re-issues a round on its own.
type Reconnector struct {
	id       string
	dials    []func() (Client, error)
	attempts int
	backoff  time.Duration
	// budget and obs are fixed at construction: every Call earns into the
	// budget and every same-endpoint retry must take a token first (nil is
	// unlimited); retry, failover and redial activity is published to obs
	// ("transport.retries", "transport.failovers",
	// "transport.redial_failures", "transport.retry_wasted_bytes").
	budget *RetryBudget
	obs    *obs.Obs

	// MaxBackoff caps the exponential backoff (default 10×backoff, at
	// least 2s). Set before the first Call.
	MaxBackoff time.Duration

	mu sync.Mutex
	//lint:guarded-by mu
	cur Client
	// ep is the current endpoint index; sticky across calls.
	//
	//lint:guarded-by mu
	ep int
	//lint:guarded-by mu
	rng *rand.Rand
	//lint:guarded-by mu
	sleep func(ctx context.Context, d time.Duration) error
}

// NewReconnector returns a client for a single-endpoint site that dials
// lazily and retries each call up to attempts times (minimum 1). backoff
// is the base pause between retries.
func NewReconnector(id string, dial func() (Client, error), attempts int, backoff time.Duration) *Reconnector {
	return NewReplicaSet(id, []func() (Client, error){dial}, attempts, backoff)
}

// NewReplicaSet returns a client for a logical site backed by replica
// endpoints in preference order. Each call tries the current endpoint up
// to attempts times, then fails over to the next replica; the working
// endpoint stays selected for subsequent calls.
func NewReplicaSet(id string, dials []func() (Client, error), attempts int, backoff time.Duration) *Reconnector {
	return newReplicaSet(id, dials, attempts, backoff, nil, nil)
}

// newReplicaSet is NewReplicaSet with the shared retry budget and the obs
// sink the site builder attaches. An exhausted budget fails the call with
// an error wrapping ErrBudgetExhausted (and the last transport error)
// instead of retrying, so a sick cluster's retry volume stays bounded by
// the budget's ratio of primary traffic. Replica failovers are not
// charged — the next endpoint is an independent, presumed-healthy site,
// and charging failovers would let one dead replica starve the budget
// for everyone.
func newReplicaSet(id string, dials []func() (Client, error), attempts int, backoff time.Duration, budget *RetryBudget, o *obs.Obs) *Reconnector {
	if attempts < 1 {
		attempts = 1
	}
	if len(dials) == 0 {
		panic("transport: replica set needs at least one endpoint")
	}
	maxB := 10 * backoff
	if maxB < 2*time.Second {
		maxB = 2 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return &Reconnector{
		id: id, dials: dials, attempts: attempts, backoff: backoff,
		budget: budget, obs: o,
		MaxBackoff: maxB,
		rng:        rand.New(rand.NewSource(int64(h.Sum64()))),
		sleep:      sleepCtx,
	}
}

// NewReplicaTCP is a Reconnector failing over across TCP addresses.
func NewReplicaTCP(id string, addrs []string, cost CostModel, attempts int, backoff time.Duration) *Reconnector {
	dials := make([]func() (Client, error), 0, len(addrs))
	for _, addr := range addrs {
		addr := addr
		dials = append(dials, func() (Client, error) {
			return DialTCP(id, addr, cost)
		})
	}
	return NewReplicaSet(id, dials, attempts, backoff)
}

// SetSleep overrides the backoff sleep function (tests inject virtual
// time). The function receives the jittered delay and should honor ctx.
func (r *Reconnector) SetSleep(f func(ctx context.Context, d time.Duration) error) {
	r.mu.Lock()
	r.sleep = f
	r.mu.Unlock()
}

// SetSeed reseeds the jitter source, making backoff sequences reproducible
// across runs regardless of the site id.
func (r *Reconnector) SetSeed(seed int64) {
	r.mu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.mu.Unlock()
}

// SiteID implements Client.
func (r *Reconnector) SiteID() string { return r.id }

// Endpoint returns the index of the currently selected replica endpoint.
func (r *Reconnector) Endpoint() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ep
}

// Close implements Client.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}

// Call implements Client with reconnect-and-retry plus replica failover.
//
// A shed response (Response.Code CodeDraining) is treated as "this
// replica is healthy but refusing work": the call fails over to the next
// replica immediately, without backoff and without consuming the
// endpoint's retry budget. Once every replica has shed the call, the last
// shed response is returned as-is so the caller sees the typed refusal
// (ErrDraining via Response.Error). A limit refusal (CodeOverloaded) is
// returned at once: every replica would refuse the request the same way.
func (r *Reconnector) Call(ctx context.Context, req *Request) (*Response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budget.Earn()
	var lastErr error
	shedHops := 0           // replicas that shed this call in a row
	sends := 0              // exchanges attempted, the answered one included
	justFailedOver := false // skip the loop-top transition after a shed failover
	total := r.attempts * len(r.dials)
	for i := 0; i < total; i++ {
		attempt := i % r.attempts // attempt index at the current endpoint
		if justFailedOver {
			justFailedOver = false
		} else if i > 0 {
			if attempt == 0 {
				// Retries at the previous endpoint are exhausted: fail
				// over to the next replica without backing off (it is an
				// independent endpoint, presumed healthy).
				from := r.ep
				r.ep = (r.ep + 1) % len(r.dials)
				r.obs.Count("transport.failovers", 1)
				r.obs.Event(obs.EventFailover, r.id, "failing over to next replica",
					map[string]string{
						"op":   req.Op.String(),
						"from": strconv.Itoa(from),
						"to":   strconv.Itoa(r.ep),
					})
			} else {
				if !r.budget.Take() {
					return nil, fmt.Errorf("transport: %s: %w: %w", r.id, ErrBudgetExhausted, lastErr)
				}
				r.obs.Count("transport.retries", 1)
				r.obs.Event(obs.EventRetry, r.id, "retrying after transport failure",
					map[string]string{
						"op":       req.Op.String(),
						"attempt":  strconv.Itoa(attempt + 1),
						"endpoint": strconv.Itoa(r.ep),
						"error":    lastErr.Error(),
					})
				if r.backoff > 0 {
					if err := r.sleep(ctx, r.jitteredBackoffLocked(attempt)); err != nil {
						return nil, fmt.Errorf("transport: %s: %w", r.id, err)
					}
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("transport: %s: %w", r.id, err)
		}
		if r.cur == nil {
			c, err := r.dialLocked()
			if err != nil {
				lastErr = err
				r.obs.Count("transport.redial_failures", 1)
				r.obs.Event(obs.EventRedial, r.id, "dial failed",
					map[string]string{"endpoint": strconv.Itoa(r.ep), "error": err.Error()})
				continue
			}
			r.cur = c
		}
		resp, d, err := Exchange(ctx, r.cur, req)
		sends++
		if err == nil {
			d.Retries += sends - 1
			if resp.Shed() {
				shedHops++
				if shedHops >= len(r.dials) {
					// Every replica is shedding: surface the typed
					// refusal to the caller instead of spinning.
					charge(ctx, d)
					return resp, nil
				}
				// The replica is up but refusing work (draining): fail
				// over immediately without burning the endpoint's retry
				// budget — retrying the same replica would only be
				// refused again. The refused exchange's traffic is
				// waste, like a failed retry's.
				if wasted := d.Sent + d.Recv; wasted > 0 {
					r.obs.Count("transport.retry_wasted_bytes", wasted)
				}
				from := r.ep
				r.ep = (r.ep + 1) % len(r.dials)
				r.cur.Close()
				r.cur = nil
				r.obs.Count("transport.overload_failovers", 1)
				r.obs.Event(obs.EventOverload, r.id, "replica shed the call; failing over",
					map[string]string{
						"op":   req.Op.String(),
						"code": strconv.Itoa(resp.Code),
						"from": strconv.Itoa(from),
						"to":   strconv.Itoa(r.ep),
					})
				justFailedOver = true
				i--
				continue
			}
			charge(ctx, d)
			return resp, nil
		}
		// A failed attempt's partial traffic is retry waste, not part of
		// the logical exchange: folding it into the aggregate would make
		// the coordinator double-count round bytes once a retry succeeds.
		// It stays visible as a dedicated counter instead — except when
		// the failure is a hedge losing its race: the Hedger accounts
		// that traffic under transport.hedge_wasted_bytes, and counting
		// it here too would double-book the same bytes as retry waste.
		if wasted := d.Sent + d.Recv; wasted > 0 && !errors.Is(context.Cause(ctx), ErrHedgeLost) {
			r.obs.Count("transport.retry_wasted_bytes", wasted)
		}
		lastErr = err
		// The connection is suspect after a transport error: drop it so
		// the next attempt redials.
		r.cur.Close()
		r.cur = nil
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller cancelled or timed out; do not reinterpret that
			// as an endpoint failure. The errors.Is checks matter when the
			// cancellation surfaced inside the inner client (e.g. a
			// coordinator cancelling siblings after a first error) before
			// this context observes it: classifying that as a site fault
			// would burn a healthy site's retry budget.
			return nil, lastErr
		}
	}
	if len(r.dials) > 1 {
		return nil, fmt.Errorf("transport: %s failed after %d attempt(s) across %d replicas: %w",
			r.id, total, len(r.dials), lastErr)
	}
	return nil, fmt.Errorf("transport: %s failed after %d attempt(s): %w", r.id, total, lastErr)
}

// dialLocked connects to the current endpoint; callers hold r.mu.
func (r *Reconnector) dialLocked() (Client, error) {
	c, err := r.dials[r.ep]()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s[%d]: %w", r.id, r.ep, err)
	}
	return c, nil
}

// jitteredBackoffLocked returns the delay before retry number attempt
// (≥1) at one endpoint: exponential in the attempt with full jitter in
// the upper half of the window, capped at MaxBackoff; callers hold r.mu
// (the jitter rng is guarded by it).
func (r *Reconnector) jitteredBackoffLocked(attempt int) time.Duration {
	d := r.backoff << uint(attempt-1)
	if d > r.MaxBackoff || d <= 0 { // d <= 0 on shift overflow
		d = r.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(r.rng.Int63n(int64(half)+1))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
