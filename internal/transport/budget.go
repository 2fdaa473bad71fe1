package transport

//lint:wrap-errors budget refusals must stay inspectable with errors.Is

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrBudgetExhausted is returned (wrapped) when a retry or hedge was
// suppressed because the shared retry budget had no tokens left. It marks
// the cluster as sick enough that speculative extra work would only deepen
// the overload — callers should surface the primary failure, not spin.
var ErrBudgetExhausted = errors.New("transport: retry budget exhausted")

// RetryBudget is a token bucket shared by everything that issues
// speculative or repeated traffic against the sites — Reconnector retries
// and ReplicaSet hedges. Every call earns Ratio tokens at the replica
// layer (capped at Burst); every same-replica retry or hedge spends one,
// a failover to another replica none. When the bucket is empty the
// speculative send is suppressed, so a sick cluster degrades to at most
// (1+Ratio)× its primary traffic instead of melting down in a retry
// storm.
//
// A nil *RetryBudget is valid and unlimited: Earn is a no-op and Take
// always grants, so wiring stays unconditional.
type RetryBudget struct {
	ratio float64
	burst float64
	obs   *obs.Obs

	mu sync.Mutex
	//lint:guarded-by mu
	tokens float64
}

// NewRetryBudget returns a budget earning ratio tokens per primary
// request, holding at most burst tokens. The bucket starts full so cold
// starts (first request straight into a straggler) can still hedge.
// Denials are published to o as the "transport.budget_denied" counter.
func NewRetryBudget(ratio float64, burst int, o *obs.Obs) *RetryBudget {
	return &RetryBudget{ratio: ratio, burst: float64(burst), obs: o, tokens: float64(burst)}
}

// Earn credits the budget for one primary request. Nil-safe.
func (b *RetryBudget) Earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Take spends one token for a retry or hedge, reporting whether the
// speculative send is within budget. Nil-safe (always true).
func (b *RetryBudget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.obs.Count("transport.budget_denied", 1)
		return false
	}
	b.tokens--
	return true
}
