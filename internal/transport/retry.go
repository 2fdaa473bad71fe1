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
	"repro/internal/relation"
)

// Reconnector is the retry layer: a client of one site endpoint with
// transparent reconnect-and-retry on transport failures (broken TCP
// connections, site restarts). It dials lazily, redials after a failed
// call, and re-sends the call up to attempts times. Re-sending is safe
// because every protocol exchange is idempotent — only partial aggregate
// state and queries in wire form are shipped, never detail data, so
// repeating a round recomputes the same sub-aggregates (see PROTOCOL.md,
// "Timeouts, cancellation, and failover"). Moving a call to another
// replica is the replica layer's (ReplicaSet), never this one's.
//
// Site-side errors (Response.Err) are deterministic results of the request
// and are never retried — only transport-level Call errors are. A shed or a
// limit refusal is a response too, returned as it arrives. Context
// cancellation and deadline expiry also stop retrying immediately: the
// caller gave up, so burning further attempts is wasted work.
//
// Retries back off exponentially with full jitter from a deterministic
// per-site seed: delay n is uniform in [base·2ⁿ/2, base·2ⁿ], capped at
// maxBackoff. A call charges its exchange (see Exchange) with the
// answered attempt's traffic alone, whichever connection carried it, plus
// the re-sends it needed (Delta.Retries), which is how a round learns it
// was retried. This is the only layer that re-sends a failed call to the
// same endpoint: the coordinator never re-issues a round on its own.
type Reconnector struct {
	id       string
	dial     func() (Client, error)
	attempts int
	backoff  time.Duration
	// maxBackoff caps the exponential backoff: 10×backoff, at least 2s.
	maxBackoff time.Duration
	// budget and obs are fixed at construction: every same-endpoint retry
	// must take a token from the budget first (nil is unlimited); retry
	// and redial activity is published to obs ("transport.retries",
	// "transport.redial_failures", "transport.retry_wasted_bytes").
	budget *RetryBudget
	obs    *obs.Obs

	// sleep waits out a backoff; a test replaces it before any call.
	sleep func(ctx context.Context, d time.Duration) error

	// mu is never held across an exchange, so Close closes the connection
	// under a call in flight, which then fails, instead of waiting for it.
	mu sync.Mutex
	//lint:guarded-by mu
	cur Client
	//lint:guarded-by mu
	closed bool
	//lint:guarded-by mu
	rng *rand.Rand
}

// newReconnector returns the retry layer over one endpoint: it dials
// lazily and tries each call up to attempts times (minimum 1), backoff
// being the base pause between tries. Every same-endpoint retry takes a
// token from budget (nil is unlimited) first: an exhausted budget fails
// the call with an error wrapping ErrBudgetExhausted (and the last
// transport error) instead of retrying, so a sick cluster's retry volume
// stays bounded by the budget's ratio of primary traffic; the replica
// layer above may still fail the call over to another replica.
func newReconnector(id string, dial func() (Client, error), attempts int, backoff time.Duration, budget *RetryBudget, o *obs.Obs) *Reconnector {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &Reconnector{
		id: id, dial: dial, attempts: max(attempts, 1), backoff: backoff,
		maxBackoff: max(10*backoff, 2*time.Second),
		budget:     budget, obs: o,
		rng:   rand.New(rand.NewSource(int64(h.Sum64()))),
		sleep: sleepCtx,
	}
}

// SiteID implements Client.
func (r *Reconnector) SiteID() string { return r.id }

// Close implements Client: it closes the connection, failing a call in
// flight on it, and every later call fails with ErrClosed and dials
// nothing.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}

// conn returns the connection, dialing one when there is none (Close
// waits for a dial, never for an exchange). Once the layer is closed it
// dials nothing and fails with ErrClosed.
func (r *Reconnector) conn() (Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("transport: %s: %w", r.id, ErrClosed)
	}
	if r.cur == nil {
		c, err := r.dial()
		if err != nil {
			return nil, err
		}
		r.cur = c
	}
	return r.cur, nil
}

// Call implements Client with reconnect-and-retry.
func (r *Reconnector) Call(ctx context.Context, req *Request) (*Response, error) {
	var lastErr error
	sends := 0 // exchanges attempted, the answered one included
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			if !r.budget.Take() {
				return nil, fmt.Errorf("transport: %s: %w: %w", r.id, ErrBudgetExhausted, lastErr)
			}
			r.obs.Count("transport.retries", 1)
			r.obs.Event(obs.EventRetry, r.id, "retrying after transport failure",
				map[string]string{
					"op":      req.Op.String(),
					"attempt": strconv.Itoa(attempt + 1),
					"error":   lastErr.Error(),
				})
			if r.backoff > 0 {
				r.mu.Lock()
				d := r.jitteredBackoffLocked(attempt)
				r.mu.Unlock()
				if err := r.sleep(ctx, d); err != nil {
					return nil, fmt.Errorf("transport: %s: %w", r.id, err)
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("transport: %s: %w", r.id, err)
		}
		cur, err := r.conn()
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		if err != nil {
			lastErr = fmt.Errorf("transport: dial %s: %w", r.id, err)
			r.obs.Count("transport.redial_failures", 1)
			r.obs.Event(obs.EventRedial, r.id, "dial failed", map[string]string{"error": err.Error()})
			continue
		}
		resp, d, err := Exchange(ctx, cur, req)
		sends++
		if err == nil {
			d.Retries += sends - 1
			charge(ctx, d)
			return resp, nil
		}
		// A failed attempt's partial traffic is retry waste, not part of
		// the logical exchange: folding it into the aggregate would make
		// the coordinator double-count round bytes once a retry succeeds.
		// It stays visible as a dedicated counter instead — except when
		// the failure is a hedge losing its race: the replica layer
		// accounts that traffic under transport.hedge_wasted_bytes, and
		// counting it here too would double-book the same bytes as retry
		// waste.
		if wasted := d.Sent + d.Recv; wasted > 0 && !errors.Is(context.Cause(ctx), ErrHedgeLost) {
			r.obs.Count("transport.retry_wasted_bytes", wasted)
		}
		lastErr = err
		// The connection is suspect after a transport error: drop it so
		// the next attempt redials. A malformed relation is not one: the
		// request was refused unsent or the reply read whole, so the
		// stream is in sync and the next attempt reuses the connection.
		if !errors.Is(err, relation.ErrMalformed) {
			r.mu.Lock()
			if r.cur == cur {
				r.cur = nil
			}
			r.mu.Unlock()
			cur.Close()
		}
		if callerGaveUp(ctx, err) {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("transport: %s failed after %d attempt(s): %w", r.id, r.attempts, lastErr)
}

// callerGaveUp reports whether a call failed with err because its caller
// cancelled, timed out or closed the client (ErrClosed), which is no fault
// of the endpoint: such a call is neither retried nor failed over. The
// errors.Is checks matter when the cancellation surfaced inside the inner
// client (e.g. a coordinator cancelling siblings after a first error)
// before ctx observes it: classifying that as a site fault would burn a
// healthy site's retry budget.
func callerGaveUp(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrClosed)
}

// jitteredBackoffLocked returns the delay before retry number attempt
// (≥1) at one endpoint: exponential in the attempt with full jitter in
// the upper half of the window, capped at maxBackoff; callers hold r.mu
// (the jitter rng is guarded by it).
func (r *Reconnector) jitteredBackoffLocked(attempt int) time.Duration {
	d := r.backoff << uint(attempt-1)
	if d > r.maxBackoff || d <= 0 { // d <= 0 on shift overflow
		d = r.maxBackoff
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
