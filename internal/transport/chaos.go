package transport

//lint:deterministic fault injection must replay exactly from its seed

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// OpAny matches every opcode in chaos fault rules.
const OpAny Op = -1

// ErrInjected is the error returned by chaos-injected failures, so tests
// can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Fault describes one injectable failure. A fault acts on the one
// connection the faulted call runs on, as a failing network would: it
// delays the call, hangs it, or breaks the connection. Fields compose: a
// fault may delay and then fail, for example.
type Fault struct {
	// Delay sleeps before the request is written (honoring the context).
	Delay time.Duration
	// Err, when non-nil, breaks the connection and fails the call with
	// Err instead of sending it. With DropAfter, the request is sent and
	// its reply read first: the site did the work, the reply is lost.
	Err error
	// Hang blocks before the request is written until the call's context
	// is done (or the connection is closed), simulating a site that
	// accepts the request and never answers.
	Hang bool
	// Drop breaks the connection and fails the call, simulating a
	// connection torn down mid-exchange.
	Drop bool
	// DropAfter sends the call, reads its reply, and then breaks the
	// connection: the site answered round N but its connection is gone
	// when round N+1 fans out — the round-boundary failure mode that
	// exercises redial and checkpoints rather than mid-call retry. The
	// retry layer learns of it by sending on the broken connection. The
	// coordinator is synchronizing when the teardown happens, so
	// composing DropAfter with Delay on the *next* op models a
	// mid-synchronize kill.
	DropAfter bool
}

// Chaos is a deterministic fault schedule for one replica of a site:
// every failure mode of a real network — slow links, hung sites, dropped
// connections, transient errors — becomes reproducible in-process, so the
// full fault-tolerance surface is testable with plain `go test`. Armed on
// a Replica, it applies to every connection Site dials to that replica,
// each fault to the connection the faulted call runs on; one schedule
// counts the replica's calls across redials and pooled connections.
//
// Faults come from two sources, checked in order:
//
//  1. A scripted per-op FIFO of one-shot faults (Inject) and positional
//     one-shots (InjectAt). OpAny queues apply to every opcode. Scripted
//     faults make specific scenarios exact: "the second evalRounds hangs".
//  2. Seeded straggler delays (SetTailLatency): each call draws from a
//     rand.Rand seeded by the caller, so a given seed always produces the
//     same delay sequence for the same call sequence.
type Chaos struct {
	mu sync.Mutex
	//lint:guarded-by mu
	queues map[Op][]Fault
	// at holds positional one-shots, keyed by per-op call number.
	//
	//lint:guarded-by mu
	at map[Op]map[int]Fault
	// opCalls counts calls seen per opcode (for InjectAt).
	//
	//lint:guarded-by mu
	opCalls map[Op]int
	// Tail-latency mode (SetTailLatency).
	//
	//lint:guarded-by mu
	tailRng *rand.Rand
	//lint:guarded-by mu
	tailP float64
	//lint:guarded-by mu
	tailDelay time.Duration
	//lint:guarded-by mu
	calls int
	//lint:guarded-by mu
	injected int
}

// NewChaos returns an empty fault schedule.
func NewChaos() *Chaos {
	return &Chaos{
		queues:  map[Op][]Fault{},
		opCalls: map[Op]int{},
	}
}

// Inject queues a one-shot fault for the given opcode (OpAny = every op).
// Queued faults are consumed FIFO, one per matching call.
func (c *Chaos) Inject(op Op, f Fault) {
	c.mu.Lock()
	c.queues[op] = append(c.queues[op], f)
	c.mu.Unlock()
}

// InjectAt schedules a one-shot fault for the nth future call (1-based)
// carrying the given opcode, counted from now on a per-op counter — so
// "kill the connection after the site answers round 2" is
// InjectAt(OpEvalRounds, 2, Fault{DropAfter: true}) regardless of what
// other ops interleave. With OpAny the position counts all calls.
// Scheduling a second fault at the same (op, n) replaces the first.
func (c *Chaos) InjectAt(op Op, nthCall int, f Fault) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at == nil {
		c.at = map[Op]map[int]Fault{}
	}
	if c.at[op] == nil {
		c.at[op] = map[int]Fault{}
	}
	base := c.opCalls[op]
	if op == OpAny {
		base = c.calls
	}
	c.at[op][base+nthCall] = f
}

// SetTailLatency enables a seeded heavy-tail latency mode: each call is
// delayed by delay with probability p, drawn from a dedicated rng seeded
// at seed — the deterministic straggler distribution the tail-tolerance
// tests and `-experiment tail` inject. It is checked after scripted
// faults; p ≤ 0 disables the mode.
func (c *Chaos) SetTailLatency(seed int64, p float64, delay time.Duration) {
	c.mu.Lock()
	c.tailRng = rand.New(rand.NewSource(seed))
	c.tailP = p
	c.tailDelay = delay
	c.mu.Unlock()
}

// Calls returns how many calls the schedule has seen.
func (c *Chaos) Calls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// Injected returns how many calls were given a fault.
func (c *Chaos) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// next pops the fault to apply to this call, if any.
func (c *Chaos) next(op Op) (Fault, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.opCalls[op]++
	if m := c.at[op]; m != nil {
		if f, ok := m[c.opCalls[op]]; ok {
			delete(m, c.opCalls[op])
			c.injected++
			return f, true
		}
	}
	if m := c.at[OpAny]; m != nil {
		if f, ok := m[c.calls]; ok {
			delete(m, c.calls)
			c.injected++
			return f, true
		}
	}
	for _, key := range []Op{op, OpAny} {
		if q := c.queues[key]; len(q) > 0 {
			f := q[0]
			c.queues[key] = q[1:]
			c.injected++
			return f, true
		}
	}
	if c.tailP > 0 && c.tailRng.Float64() < c.tailP {
		c.injected++
		return Fault{Delay: c.tailDelay}, true
	}
	return Fault{}, false
}

// faultModes renders the composed failure modes of f ("delay+err").
func faultModes(f Fault) string {
	var modes []string
	if f.Delay > 0 {
		modes = append(modes, "delay")
	}
	if f.Hang {
		modes = append(modes, "hang")
	}
	if f.Drop {
		modes = append(modes, "drop")
	}
	if f.DropAfter {
		modes = append(modes, "drop-after")
	}
	if f.Err != nil {
		modes = append(modes, "err")
	}
	if len(modes) == 0 {
		return "none"
	}
	return strings.Join(modes, "+")
}

// chaosLeaf is one connection to a replica under the replica's fault
// schedule: Site.dial's leaf when the replica is armed. The schedule is
// applied here, not to the net.Conn beneath, because a request's op can
// only be read from its bytes by decoding them. Every fault acts on this
// connection alone, so the retry layer above learns of it by using the
// connection, as it learns of a real network failure.
type chaosLeaf struct {
	*TCPClient
	ch *Chaos
	// closed ends a hung call when the leaf is closed.
	closed    chan struct{}
	closeOnce sync.Once
}

// Close implements Client, releasing a hung call.
func (l *chaosLeaf) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.TCPClient.Close()
}

// Call implements Client, applying at most one fault per call.
func (l *chaosLeaf) Call(ctx context.Context, req *Request) (*Response, error) {
	f, ok := l.ch.next(req.Op)
	if !ok {
		return l.TCPClient.Call(ctx, req)
	}
	l.record(req.Op, f)
	if f.Delay > 0 {
		if err := sleepCtx(ctx, f.Delay); err != nil {
			return nil, fmt.Errorf("chaos: %s: %w", l.id, err)
		}
	}
	if f.Hang {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("chaos: %s hung: %w", l.id, ctx.Err())
		case <-l.closed:
			return nil, fmt.Errorf("chaos: %s hung until close: %w: %w", l.id, ErrInjected, ErrClosed)
		}
	}
	if f.Drop || (f.Err != nil && !f.DropAfter) {
		l.breakConn()
		return nil, fmt.Errorf("chaos: %s: %w", l.id, cmp.Or(f.Err, ErrInjected))
	}
	resp, err := l.TCPClient.Call(ctx, req)
	if f.DropAfter {
		l.breakConn()
		if err == nil && f.Err != nil {
			return nil, fmt.Errorf("chaos: %s lost the reply: %w", l.id, f.Err)
		}
	}
	return resp, err
}

// record publishes one injected fault to the site's obs sink: the event
// (kind obs.EventChaos) and per-mode counters ("chaos.injected",
// "chaos.injected.err", ...), so chaos attribution is never lost.
func (l *chaosLeaf) record(op Op, f Fault) {
	modes := faultModes(f)
	l.obs.Count("chaos.injected", 1)
	l.obs.Count("chaos.injected."+modes, 1)
	l.obs.Event(obs.EventChaos, l.id, "injected "+modes+" on "+op.String(),
		map[string]string{"op": op.String(), "fault": modes})
}
