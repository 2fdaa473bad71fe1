package transport

//lint:wrap-errors site-client failures must stay inspectable with errors.Is/As

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Resilience is how one call to a logical site survives a bad replica.
type Resilience struct {
	// Attempts is the tries at one replica before failing over to the
	// next, Backoff the base pause between them (exponential, jittered).
	// Attempts 0 omits the retry layer: each call is sent once to a
	// replica over a bare connection, redialed after a failed call, as
	// in-process and loopback clusters are; a site with replicas still
	// fails over, after one attempt at each.
	Attempts int
	Backoff  time.Duration
	// Hedge races a round call that outlives the hedge threshold — the
	// fixed HedgeDelay, or when that is 0 an adaptive multiple of the
	// site's recent latency — against the next replica of a site with at
	// least two: first success wins, the loser is cancelled. Duplicated
	// evaluation is safe (PROTOCOL.md, "Tail tolerance").
	Hedge      bool
	HedgeDelay time.Duration
	// RetryBudget is the retry tokens each call earns for the
	// cluster-wide budget every same-replica retry and every hedge spends
	// one token from, capped at RetryBudgetBurst banked tokens. A failover
	// to another replica spends none.
	RetryBudget      float64
	RetryBudgetBurst int
}

// DefaultResilience is what ConnectWith uses where its configuration says
// nothing, and what skalla-coord's flags default to.
var DefaultResilience = Resilience{Attempts: 3, Backoff: 100 * time.Millisecond, RetryBudget: 0.1, RetryBudgetBurst: 10}

// WithDefaults fills unset (non-positive) fields from DefaultResilience.
func (r Resilience) WithDefaults() Resilience {
	d := DefaultResilience
	r.Attempts = positiveOr(r.Attempts, d.Attempts)
	r.Backoff = positiveOr(r.Backoff, d.Backoff)
	r.RetryBudget = positiveOr(r.RetryBudget, d.RetryBudget)
	r.RetryBudgetBurst = positiveOr(r.RetryBudgetBurst, d.RetryBudgetBurst)
	return r
}

func positiveOr[T int | float64 | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// NewBudget returns the retry budget these settings describe, to be shared
// by every SiteSpec of one cluster so that aggregate speculative traffic
// stays a bounded fraction of primary traffic.
func (r Resilience) NewBudget(o *obs.Obs) *RetryBudget {
	return NewRetryBudget(r.RetryBudget, r.RetryBudgetBurst, o)
}

// Replica is one endpoint of a logical site: a site server's TCP address
// or, when Handler is set, an in-process handler reached over a pipe.
type Replica struct {
	Addr    string
	Handler Handler
	// Chaos, when set, is the replica's fault schedule (tests and
	// `-experiment tail`): every connection dialed to the replica, by any
	// client of the site, draws its faults from it, so scripted faults and
	// seeded draws span redials and pooled connections alike.
	Chaos *Chaos
}

// SiteSpec describes the client of one logical site: where its replicas
// are (in preference order, all holding the same partition), the link's
// cost model, the sink every layer reports to, and which resilience
// layers sit between a caller and the replicas.
type SiteSpec struct {
	ID       string
	Replicas []Replica
	Cost     CostModel
	Obs      *obs.Obs
	Resilience
	// Budget is the retry budget shared with the other sites of the
	// cluster (Resilience.NewBudget); nil is unlimited.
	Budget *RetryBudget
}

// sitePool is the size of every client's connection pool, one per
// replica: the most calls a client has in flight to one replica at once,
// a bound every execution sharing the client shares. Calls beyond it
// queue at the site; a held or cancelled call holds only its own
// connection.
const sitePool = 4

// Site is the one place a logical site's client stack is assembled. It
// owns what all its clients share — the current replica and the hedging
// latency estimate — and a liveness probe, and hands out clients, each
// composed, outermost to innermost, in the one shape this package builds:
//
//	replicas → pool → retry → leaf
//
// with one pool → retry → leaf stack per replica, the pool sitePool
// connections deep. The replica layer (ReplicaSet) is the only
// one that knows the site has replicas: it fails over between them,
// sticking per site to the replica that works, and hedges when asked; the
// retry layer beneath holds one endpoint. The replica layer earns into
// the shared retry budget once per call; a same-endpoint retry and a
// hedge each spend a token, a failover none.
type Site struct {
	spec  SiteSpec
	state *replicaState

	mu sync.Mutex
	//lint:guarded-by mu
	probe Client
}

// NewSite assembles the shared state of the stack spec describes. It
// dials nothing.
func NewSite(spec SiteSpec) (*Site, error) {
	if len(spec.Replicas) == 0 {
		return nil, fmt.Errorf("transport: site %s: no replicas", spec.ID)
	}
	return &Site{spec: spec, state: &replicaState{
		hedge: spec.Hedge, delay: spec.HedgeDelay, budget: spec.Budget, obs: spec.Obs,
	}}, nil
}

// retry returns the retry layer over one replica. Without one asked for
// (Attempts ≤ 0) it makes one attempt: each call is sent once, and a
// connection a failed or cancelled call broke is redialed on the next.
func (s *Site) retry(r Replica) *Reconnector {
	return newReconnector(s.spec.ID, func() (Client, error) { return s.dial(r) },
		s.spec.Attempts, s.spec.Backoff, s.spec.Budget, s.spec.Obs)
}

// dial opens the leaf connection to one replica: a TCP connection, or a
// pipe to an in-process handler served by the same connection loop. It is
// the one place a replica's fault schedule is applied.
func (s *Site) dial(r Replica) (Client, error) {
	var tc *TCPClient
	if r.Handler != nil {
		tc = dialPipe(s.spec.ID, r.Handler, s.spec.Cost)
	} else {
		var err error
		if tc, err = DialTCP(s.spec.ID, r.Addr, s.spec.Cost); err != nil {
			return nil, err
		}
	}
	tc.obs = s.spec.Obs
	if r.Chaos == nil {
		return tc, nil
	}
	return &chaosLeaf{TCPClient: tc, ch: r.Chaos, closed: make(chan struct{})}, nil
}

// dialPipe serves handler on one end of a new net.Pipe and returns a
// client over the other end, so an in-process call is encoded, counted,
// cancelled and hung up exactly as a call to a remote site is. Closing
// the client ends the connection's server goroutine once any request in
// flight has returned.
func dialPipe(id string, handler Handler, cost CostModel) *TCPClient {
	conn, far := net.Pipe()
	srv := NewServer(handler)
	srv.wg.Add(1)
	go srv.serveConn(far)
	return newTCPClient(id, conn, cost)
}

// Client returns a new client of the site, replicas → pool → retry →
// leaf, whose pools are its own. It is safe for concurrent calls: each
// call's traffic travels with the call (see Exchange), so any number of
// executions may share one client. Closing it releases its connections
// and pools for good: a later call fails with ErrClosed and dials nothing.
func (s *Site) Client() Client {
	replicas := make([]Client, len(s.spec.Replicas))
	for i, r := range s.spec.Replicas {
		replicas[i] = NewPool(s.spec.ID, sitePool, func() Client { return s.retry(r) }, s.spec.Obs)
	}
	return s.state.replicaSet(s.spec.ID, replicas)
}

// NewReplicaTCP is the client of a site served at the TCP addresses, in
// preference order, with attempts tries at each, backoff apart: the
// stack Site builds for them, as skalla.Connect deploys it. It panics
// when addrs is empty.
func NewReplicaTCP(id string, addrs []string, cost CostModel, attempts int, backoff time.Duration) Client {
	replicas := make([]Replica, len(addrs))
	for i, addr := range addrs {
		replicas[i] = Replica{Addr: addr}
	}
	s, err := NewSite(SiteSpec{ID: id, Replicas: replicas, Cost: cost, Resilience: Resilience{Attempts: attempts, Backoff: backoff}})
	if err != nil {
		panic(err)
	}
	return s.Client()
}

// Ping probes the site's liveness over a client of its own, lazily
// dialed — never a query client's pool, so a saturated pool does not read
// as an unhealthy site — that is dropped after any failure so a restart
// is noticed.
func (s *Site) Ping(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probe == nil {
		s.probe = s.Client()
	}
	resp, err := s.probe.Call(ctx, &Request{Op: OpPing})
	if err == nil {
		err = resp.Error()
	}
	if err != nil {
		s.probe.Close()
		s.probe = nil
	}
	return err
}

// ID returns the logical site identifier.
func (s *Site) ID() string { return s.spec.ID }

// String prints the assembled stack, outermost layer first, e.g.
//
//	hedge(adaptive) > pool(4) > retry(3,100ms) > tcp 10.0.0.1:7001|10.0.1.1:7001
//
// The replica layer prints as hedge(...) when it hedges, as failover
// when it does not, and not at all over one replica.
func (s *Site) String() string {
	var b strings.Builder
	layer := func(present bool, format string, args ...any) {
		if present {
			fmt.Fprintf(&b, format+" > ", args...)
		}
	}
	replicated := len(s.spec.Replicas) > 1
	layer(replicated && s.spec.Hedge && s.spec.HedgeDelay > 0, "hedge(%s)", s.spec.HedgeDelay)
	layer(replicated && s.spec.Hedge && s.spec.HedgeDelay <= 0, "hedge(adaptive)")
	layer(replicated && !s.spec.Hedge, "failover")
	fmt.Fprintf(&b, "pool(%d) > ", sitePool)
	layer(s.spec.Attempts > 0, "retry(%d,%s)", s.spec.Attempts, s.spec.Backoff)
	if s.spec.Replicas[0].Handler == nil {
		b.WriteString("tcp ")
	}
	for i, r := range s.spec.Replicas {
		leaf := r.Addr
		if r.Handler != nil {
			leaf = "local"
		}
		if r.Chaos != nil {
			leaf = "chaos(" + leaf + ")"
		}
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(leaf)
	}
	return b.String()
}

// Close releases the probe client. Clients are closed by their
// holders.
func (s *Site) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probe != nil {
		s.probe.Close()
		s.probe = nil
	}
	return nil
}
