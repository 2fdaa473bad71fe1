package transport

//lint:wrap-errors replica failures must stay inspectable with errors.Is

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
// because the other replica already answered. The retry layer below the
// replica layer (Reconnector) uses context.Cause to tell this apart from a
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

// ReplicaSet is the replica layer: the one client that knows a logical
// site has replicas, over one client per replica in preference order. It
// is the only code that moves a call between replicas.
//
// A call starts at the site's current replica. On a transport error
// (budget exhaustion and dial failures included) or a shed (a draining
// replica) it fails over to the next replica at once, and the next
// replica becomes the current one for every later call of the site. A
// site error, a limit refusal or the caller's own cancellation or
// deadline is the answer: every replica would give it. When every
// replica sheds, the last shed is returned. Re-sending a call to another
// replica is safe because every replica holds the same partition and
// every exchange is idempotent (see PROTOCOL.md, "Timeouts, cancellation,
// and failover").
//
// With hedging on, an evaluation call (OpEvalRounds) still outstanding
// after the hedge threshold — a fixed delay, or the adaptive one above —
// also races the next replica: the first success wins, the loser is
// cancelled with cause ErrHedgeLost, and the current replica stays where
// it was. Duplicating a round is safe by construction: rounds are pure
// functions of the request over immutable site data (see PROTOCOL.md,
// "Tail tolerance").
//
// Placement ops (OpLoad, OpGenerate) go to every replica in
// turn and never fail over: any replica's failure fails the op naming the
// replica, so replicas never silently diverge. The reply is the first
// replica's.
//
// Every call earns once into the retry budget. A timer hedge takes one
// token; a failover takes none and is never blocked by an empty budget —
// the next replica is an independent, presumed-healthy endpoint.
//
// A call charges its exchange (see Exchange) with the answering attempt's
// traffic alone, keeping the coordinator's per-round byte accounting
// exact, plus the failovers it needed (Delta.Retries) and the hedges it
// launched (Delta.Hedges); a loser's partial traffic is counted under the
// "transport.hedge_wasted_bytes" counter instead. Each attempt returns
// its own response; the winner's is handed to the caller once and the
// losers' are dropped, so the caller owns what Call returns (see
// Client.Call). With one replica the layer is a pass-through that earns
// and forwards.
type ReplicaSet struct {
	id       string
	replicas []Client
	// replicaState is shared by every ReplicaSet of one site (see Site):
	// each moves its own replica clients by one current replica and one
	// latency estimate.
	*replicaState

	// wg tracks attempt and loser-drain goroutines so Close can prove
	// none leak (goleak).
	wg sync.WaitGroup
}

// replicaState is a site's replica memory: the hedging tuning, the
// adaptive threshold's latency estimate and the current replica.
type replicaState struct {
	// hedge enables hedging; delay, when positive, fixes the threshold,
	// zero adapts it.
	hedge bool
	delay time.Duration
	// budget, when non-nil, caps hedges: every call earns into it and
	// every timer hedge must Take from it.
	budget *RetryBudget
	// obs receives failovers and hedges as events and the
	// "transport.failovers" / "transport.overload_failovers" /
	// "transport.hedges" / "transport.hedge_wins" /
	// "transport.hedge_wasted_bytes" counters.
	obs *obs.Obs

	mu sync.Mutex
	// ewmaNs is the exponentially weighted moving average of successful
	// hedged call latency, the base of the adaptive threshold (0 = no
	// sample).
	//
	//lint:guarded-by mu
	ewmaNs float64
	// cur is the replica a call starts at.
	//
	//lint:guarded-by mu
	cur int
}

// NewHedger returns the replica layer over replicas in preference order,
// failing over between them within budget (nil = unlimited) and hedging
// evaluation calls after delay (0 = adaptive).
func NewHedger(id string, replicas []Client, delay time.Duration, budget *RetryBudget, o *obs.Obs) *ReplicaSet {
	return (&replicaState{hedge: true, delay: delay, budget: budget, obs: o}).replicaSet(id, replicas)
}

// replicaSet returns a ReplicaSet over replica clients of its own.
func (s *replicaState) replicaSet(id string, replicas []Client) *ReplicaSet {
	if len(replicas) == 0 {
		panic("transport: replica set needs at least one replica")
	}
	return &ReplicaSet{id: id, replicas: replicas, replicaState: s}
}

// SiteID implements Client.
func (r *ReplicaSet) SiteID() string { return r.id }

// Close implements Client: it closes every replica and waits for all
// attempt goroutines (including cancelled losers) to drain.
func (r *ReplicaSet) Close() error {
	var firstErr error
	for _, cl := range r.replicas {
		if err := cl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.wg.Wait()
	return firstErr
}

// threshold returns the current hedge-launch delay.
func (s *replicaState) threshold() time.Duration {
	if s.delay > 0 {
		return s.delay
	}
	s.mu.Lock()
	ewma := s.ewmaNs
	s.mu.Unlock()
	if ewma <= 0 {
		return hedgeCeiling
	}
	return min(max(time.Duration(hedgeMultiplier*ewma), hedgeFloor), hedgeCeiling)
}

// observe feeds one successful call's latency into the EWMA (α = 0.2).
func (s *replicaState) observe(d time.Duration) {
	s.mu.Lock()
	if s.ewmaNs == 0 {
		s.ewmaNs = float64(d.Nanoseconds())
	} else {
		s.ewmaNs = 0.2*float64(d.Nanoseconds()) + 0.8*s.ewmaNs
	}
	s.mu.Unlock()
}

// current returns the replica a call starts at.
func (s *replicaState) current() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// hedgeable reports whether op may be duplicated across replicas.
func hedgeable(op Op) bool { return op == OpEvalRounds }

// placement reports whether op places data, so must reach every replica.
func placement(op Op) bool { return op == OpLoad || op == OpGenerate }

// outcome is one replica attempt's result plus its wire delta.
type outcome struct {
	idx   int  // the replica
	hedge bool // launched by the hedge timer
	resp  *Response
	err   error
	d     Delta
}

// Call implements Client.
func (r *ReplicaSet) Call(ctx context.Context, req *Request) (*Response, error) {
	r.budget.Earn()
	switch {
	case len(r.replicas) == 1:
		return r.replicas[0].Call(ctx, req)
	case placement(req.Op):
		return r.place(ctx, req)
	}
	start := time.Now()
	n := len(r.replicas)
	first := r.current()
	results := make(chan outcome, n)
	cancels := make([]context.CancelCauseFunc, 0, n)
	next := func() int { return (first + len(cancels)) % n }
	launch := func(hedge bool) {
		idx := next()
		cctx, cancel := context.WithCancelCause(ctx)
		cancels = append(cancels, cancel)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			resp, d, err := Exchange(cctx, r.replicas[idx], req)
			results <- outcome{idx: idx, hedge: hedge, resp: resp, err: err, d: d}
		}()
	}
	var timer <-chan time.Time
	if r.hedge && hedgeable(req.Op) {
		t := time.NewTimer(r.threshold())
		defer t.Stop()
		timer = t.C
	}

	launch(false)
	pending, hedges, failovers := 1, 0, 0
	var fallback *outcome // the answer if nothing succeeds: the last shed, else the last failure
	for {
		var a outcome
		select {
		case <-timer:
			if len(cancels) < n && r.budget.Take() {
				r.obs.Count("transport.hedges", 1)
				r.obs.Event(obs.EventHedge, r.id, "hedging "+req.Op.String()+" to next replica: threshold exceeded",
					map[string]string{"op": req.Op.String(), "reason": "threshold exceeded", "round": strconv.Itoa(req.Round)})
				hedges++
				pending++
				launch(true)
			}
			continue
		case a = <-results:
			pending--
		}
		if a.err != nil || a.resp.Shed() {
			if a.err == nil || fallback == nil || fallback.err != nil {
				fallback = &a
			}
			if len(cancels) < n && !callerGaveUp(ctx, a.err) {
				r.failover(req, a, next())
				failovers++
				pending++
				launch(false)
				continue
			}
			if pending > 0 {
				continue // a hedge is still in flight and may yet succeed
			}
			a = *fallback
		}
		// The race is settled: cancel the losers, charge the answer's
		// traffic, and drain the losers' partial traffic as hedge waste.
		for _, cancel := range cancels {
			cancel(ErrHedgeLost)
		}
		d := Delta{}
		if a.err == nil {
			d = a.d
		}
		d.Hedges = hedges
		d.Retries += failovers
		charge(ctx, d)
		if pending > 0 {
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				for i := 0; i < pending; i++ {
					lost := <-results
					if wasted := lost.d.Sent + lost.d.Recv; wasted > 0 {
						r.obs.Count("transport.hedge_wasted_bytes", wasted)
					}
				}
			}()
		}
		if a.err != nil {
			return nil, fmt.Errorf("transport: %s: %w", r.id, a.err)
		}
		if a.hedge {
			r.obs.Count("transport.hedge_wins", 1)
		}
		if timer != nil && a.resp.Error() == nil {
			r.observe(time.Since(start))
		}
		return a.resp, nil
	}
}

// failover makes replica to the site's current one: attempt a's transport
// error or shed sends the call on to it.
func (r *ReplicaSet) failover(req *Request, a outcome, to int) {
	r.mu.Lock()
	r.cur = to
	r.mu.Unlock()
	fields := map[string]string{"op": req.Op.String(), "from": strconv.Itoa(a.idx), "to": strconv.Itoa(to)}
	if a.err != nil {
		r.obs.Count("transport.failovers", 1)
		r.obs.Event(obs.EventFailover, r.id, "failing over to next replica", fields)
		return
	}
	// The replica is up but refusing work (draining): its exchange's
	// traffic is waste, like a failed retry's.
	if wasted := a.d.Sent + a.d.Recv; wasted > 0 {
		r.obs.Count("transport.retry_wasted_bytes", wasted)
	}
	fields["code"] = strconv.Itoa(a.resp.Code)
	r.obs.Count("transport.overload_failovers", 1)
	r.obs.Event(obs.EventOverload, r.id, "replica shed the call; failing over", fields)
}

// place sends a placement op to every replica in turn, charging all their
// traffic to the call, and returns the first replica's reply. A failing
// replica does not keep the op from the others: the call fails naming
// every replica that failed.
func (r *ReplicaSet) place(ctx context.Context, req *Request) (*Response, error) {
	var first *Response
	var errs []error
	for i, cl := range r.replicas {
		resp, err := cl.Call(ctx, req)
		if err == nil {
			err = resp.Error()
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("transport: %s replica %d: %w", r.id, i, err))
		}
		if i == 0 {
			first = resp
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return first, nil
}
