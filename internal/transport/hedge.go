package transport

//lint:wrap-errors hedging failures must stay inspectable with errors.Is

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrHedgeLost is the cancellation cause attached to the context of a
// hedged attempt that lost the race: its result is no longer wanted
// because the other replica already answered. Wrappers below the hedger
// (Reconnector, Pool) use context.Cause to tell this apart from a
// real caller cancellation — a lost hedge is planned waste accounted
// under hedge counters, never a site failure and never retry waste.
var ErrHedgeLost = errors.New("transport: hedged request lost the race")

// The adaptive hedge threshold: hedge when a request has been outstanding
// hedgeMultiplier × EWMA(recent latency), clamped to [hedgeFloor,
// hedgeCeiling]; until the first completed call seeds the EWMA the
// threshold is hedgeCeiling, so cold starts never hedge on noise.
const (
	hedgeMultiplier = 3
	hedgeFloor      = time.Millisecond
	hedgeCeiling    = 100 * time.Millisecond
)

// Hedger is a tail-tolerant Client over an ordered set of replica
// clients: the primary (first) replica gets every request, and when a
// round request is outstanding longer than the hedge threshold — a fixed
// delay, or the adaptive one above — a duplicate is launched on the next replica and the
// first success wins, the loser cancelled with cause ErrHedgeLost.
// Duplicating a round is safe by construction: rounds are pure functions
// of the request over immutable site data, and only the winner's traffic
// is charged to the call, so a hedge never double-counts (see
// PROTOCOL.md, "Tail tolerance").
//
// Only the idempotent evaluation op (OpEvalRounds) is hedged; every
// other op goes to the primary alone. A primary that fails or sheds
// (drains) before the threshold fires fails over to the secondary
// immediately, charged to the same budget, so the Hedger subsumes the
// replica-failover role in hedged wiring. A limit refusal is decisive: it
// is returned as the answer, never raced against a replica.
//
// Each attempt returns its own response; the winner's is handed to the
// caller once and the losers' are dropped, so the caller owns what Call
// returns (see Client.Call).
//
// A call charges its exchange (see Exchange) with the winning attempt's
// traffic alone, keeping the coordinator's per-round byte accounting
// exact and deterministic — together with the number of hedges the call
// launched, which is how a round learns it was hedged; the loser's
// partial traffic is counted under the "transport.hedge_wasted_bytes"
// counter instead.
type Hedger struct {
	id       string
	replicas []Client
	// hedgeState is shared by every Hedger of one site (see Site): each
	// races its own replica clients against one latency estimate.
	*hedgeState

	// wg tracks attempt and loser-drain goroutines so Close can prove
	// none leak (goleak).
	wg sync.WaitGroup
}

// hedgeState is a site's hedging memory: the tuning and the adaptive
// threshold's latency estimate.
type hedgeState struct {
	// delay, when positive, fixes the hedge threshold; zero adapts it.
	delay time.Duration
	// budget, when non-nil, caps hedges: every primary call earns into it
	// and every hedge (including shed failovers) must Take from it.
	budget *RetryBudget
	// obs receives hedge launches as events (kind obs.EventHedge) and the
	// "transport.hedges" / "transport.hedge_wins" /
	// "transport.hedge_wasted_bytes" counters.
	obs *obs.Obs

	mu sync.Mutex
	// ewmaNs is the exponentially weighted moving average of successful
	// call latency, the base of the adaptive threshold (0 = no sample).
	//
	//lint:guarded-by mu
	ewmaNs float64
}

// NewHedger returns a hedging client over replicas in preference order,
// hedging after delay (0 = adaptive) within budget (nil = unlimited).
// With fewer than two replicas it degrades to a transparent wrapper.
func NewHedger(id string, replicas []Client, delay time.Duration, budget *RetryBudget, o *obs.Obs) *Hedger {
	return (&hedgeState{delay: delay, budget: budget, obs: o}).hedger(id, replicas)
}

// hedger returns a Hedger over replica clients of its own.
func (s *hedgeState) hedger(id string, replicas []Client) *Hedger {
	if len(replicas) == 0 {
		panic("transport: hedger needs at least one replica")
	}
	return &Hedger{id: id, replicas: replicas, hedgeState: s}
}

// SiteID implements Client.
func (h *Hedger) SiteID() string { return h.id }

// Close implements Client: it closes every replica and waits for all
// attempt goroutines (including cancelled losers) to drain.
func (h *Hedger) Close() error {
	var firstErr error
	for _, cl := range h.replicas {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	h.wg.Wait()
	return firstErr
}

// threshold returns the current hedge-launch delay.
func (h *hedgeState) threshold() time.Duration {
	if h.delay > 0 {
		return h.delay
	}
	h.mu.Lock()
	ewma := h.ewmaNs
	h.mu.Unlock()
	if ewma <= 0 {
		return hedgeCeiling
	}
	return min(max(time.Duration(hedgeMultiplier*ewma), hedgeFloor), hedgeCeiling)
}

// observe feeds one successful call's latency into the EWMA (α = 0.2).
func (h *hedgeState) observe(d time.Duration) {
	h.mu.Lock()
	if h.ewmaNs == 0 {
		h.ewmaNs = float64(d.Nanoseconds())
	} else {
		h.ewmaNs = 0.2*float64(d.Nanoseconds()) + 0.8*h.ewmaNs
	}
	h.mu.Unlock()
}

// hedgeable reports whether op may be duplicated across replicas.
func hedgeable(op Op) bool { return op == OpEvalRounds }

// hedgeAttempt is one replica attempt's outcome plus its wire delta.
type hedgeAttempt struct {
	idx  int
	resp *Response
	err  error
	d    Delta
}

// Call implements Client with hedged duplicate requests.
func (h *Hedger) Call(ctx context.Context, req *Request) (*Response, error) {
	h.budget.Earn()
	if len(h.replicas) < 2 || !hedgeable(req.Op) {
		return h.callDirect(ctx, req)
	}
	start := time.Now()

	results := make(chan hedgeAttempt, len(h.replicas))
	cancels := make([]context.CancelCauseFunc, len(h.replicas))
	launched := 0
	launch := func() {
		idx := launched
		launched++
		cl := h.replicas[idx]
		cctx, cancel := context.WithCancelCause(ctx)
		cancels[idx] = cancel
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			resp, d, err := Exchange(cctx, cl, req)
			results <- hedgeAttempt{idx: idx, resp: resp, err: err, d: d}
		}()
	}
	// hedge launches the duplicate if the budget allows, reporting
	// whether it did.
	hedge := func(reason string) bool {
		if launched >= len(h.replicas) || !h.budget.Take() {
			return false
		}
		o := h.obs
		o.Count("transport.hedges", 1)
		o.Event(obs.EventHedge, h.id, "hedging "+req.Op.String()+" to next replica: "+reason,
			map[string]string{
				"op":     req.Op.String(),
				"reason": reason,
				"round":  strconv.Itoa(req.Round),
			})
		launch()
		return true
	}
	// finish settles the race: the decisive attempt's traffic is charged
	// to the call beside the hedges launched, every other in-flight
	// attempt is cancelled with cause ErrHedgeLost, and a drain goroutine
	// accounts the losers' partial traffic as hedge waste.
	finish := func(a hedgeAttempt, consumed int) {
		for i := 0; i < launched; i++ {
			if i != a.idx {
				cancels[i](ErrHedgeLost)
			}
		}
		d := a.d
		if a.err != nil {
			d = Delta{}
		}
		d.Hedges = launched - 1
		charge(ctx, d)
		if remaining := launched - consumed; remaining > 0 {
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				for i := 0; i < remaining; i++ {
					lost := <-results
					if wasted := lost.d.Sent + lost.d.Recv; wasted > 0 {
						h.obs.Count("transport.hedge_wasted_bytes", wasted)
					}
				}
			}()
		}
	}

	launch()
	timer := time.NewTimer(h.threshold())
	defer timer.Stop()

	consumed := 0
	var firstFailure *hedgeAttempt
	for {
		select {
		case <-timer.C:
			hedge("threshold exceeded")
		case a := <-results:
			consumed++
			decisive := a.err == nil && !a.resp.Shed()
			if !decisive && ctx.Err() == nil && launched < len(h.replicas) {
				// The attempt failed or was shed before the threshold
				// fired: fail over to the next replica immediately, on
				// the same budget.
				reason := "attempt failed"
				if a.err == nil {
					reason = "replica shed the call"
				}
				if hedge(reason) {
					if firstFailure == nil {
						firstFailure = &a
					}
					continue
				}
			}
			if !decisive && consumed < launched {
				// The other attempt is still in flight and may yet
				// succeed; remember this failure and keep waiting.
				if firstFailure == nil {
					firstFailure = &a
				}
				continue
			}
			// The race is settled: a success, or the last outstanding
			// attempt failing with no failover left.
			if !decisive && firstFailure != nil && a.err != nil && firstFailure.err == nil {
				// Prefer a typed shed response over a transport error.
				a = *firstFailure
			}
			finish(a, consumed)
			if a.err != nil {
				return nil, fmt.Errorf("transport: %s: %w", h.id, a.err)
			}
			if a.idx > 0 {
				h.obs.Count("transport.hedge_wins", 1)
			}
			if a.resp.Error() == nil {
				h.observe(time.Since(start))
			}
			return a.resp, nil
		}
	}
}

// callDirect forwards to the primary replica alone, charging its traffic
// to the call.
func (h *Hedger) callDirect(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	resp, d, err := Exchange(ctx, h.replicas[0], req)
	if err != nil {
		return nil, err
	}
	charge(ctx, d)
	if hedgeable(req.Op) && resp.Error() == nil {
		// Passthrough successes still seed the adaptive threshold.
		h.observe(time.Since(start))
	}
	return resp, nil
}
