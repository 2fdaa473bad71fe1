package core

//lint:wrap-errors relay errors must preserve child causes for errors.Is/As

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Relay is a middle tier of a multi-tier (spanning-tree) coordinator
// architecture — the future-work direction of Section 6 of the paper. A
// relay looks like a single site to its parent (it implements
// transport.Handler) and is a coordinator over its children: it answers an
// evaluation request by running the root's round — the same fan-out and
// streaming merge — on a one-step plan rebuilt from the request, so
// upstream traffic shrinks from the sum of the children's fragments to one
// merged fragment per round.
//
// Pre-merging is legal for the same reason coordinator synchronization is
// (Theorem 1): primitive aggregate states merge associatively at any tier.
// Keyed replies merge on the request's BaseCols, which are K, and the
// states-only replies to a shipped Base by position. Where the root
// finalizes the merge into X, a relay emits it in the shape a leaf answers
// the same request with: keyed groups in arrival order, or states-only
// groups under the OR of the children's Kept bitmaps.
//
// A relay is strict: the first failing child cancels its siblings and
// fails the request, and the reply keeps the child's error code, so a
// limit refusal or a draining leaf reaches the root classified. The
// request context reaches every child call, so a parent abandoning a relay
// call stops the whole subtree.
type Relay struct {
	coord *Coordinator
}

// NewRelay builds a relay over child clients.
func NewRelay(children []transport.Client) (*Relay, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: relay needs children")
	}
	return &Relay{coord: NewCoordinator(children...)}, nil
}

// SetObs publishes the relay's exchanges into o: each child call's rpc
// span on the child's track, as the root's calls appear on the relays'.
func (r *Relay) SetObs(o *obs.Obs) { r.coord.Obs = o }

// Handle implements transport.Handler.
func (r *Relay) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	resp, err := r.handle(ctx, req)
	if err != nil {
		return &transport.Response{Err: fmt.Sprintf("relay: %v", err), Code: transport.ErrCode(err)}
	}
	return resp
}

func (r *Relay) handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Op {
	case transport.OpPing, transport.OpRelInfo:
		return r.broadcast(ctx, req)

	case transport.OpEvalRounds:
		return r.eval(ctx, req)

	case transport.OpLoad, transport.OpGenerate:
		// Data placement addresses the leaves directly: a relay cannot
		// split a shipped relation or renumber partitions.
		return nil, fmt.Errorf("unsupported op %s; place data at the leaf sites", req.Op)

	default:
		return nil, fmt.Errorf("unknown op %d", req.Op)
	}
}

// broadcast sends every child req and answers for the subtree: the
// children's row counts summed (relInfo's rows) beside the first child's
// frame (relInfo's schema). A child's error fails it.
func (r *Relay) broadcast(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	start := time.Now()
	resps, errs := r.coord.broadcast(ctx, req)
	out := &transport.Response{}
	for i, resp := range resps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.RowCount += resp.RowCount
		if f, err := resp.Frame(); i == 0 && err == nil {
			out.SetFrame(f)
		}
	}
	out.ComputeNs = time.Since(start).Nanoseconds()
	return out, nil
}

// eval runs an evaluation request as a one-step plan over the children:
// the step's request is req without its Base, which is the X the step
// ships, and its specs are every round's aggregates, in order.
func (r *Relay) eval(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	start := time.Now()
	step := &Step{Name: req.Op.String(), Request: *req}
	step.Request.Base = nil
	for _, round := range req.Rounds {
		for _, list := range round.Aggs {
			for _, text := range list {
				spec, err := agg.ParseSpec(text)
				if err != nil {
					return nil, err
				}
				step.Specs = append(step.Specs, spec)
			}
		}
	}
	rs := RoundStats{Name: step.Name}
	m, err := r.coord.exchange(ctx, req.Base, step, step.Request, &rs, true)
	if err != nil {
		return nil, err
	}
	out, kept, err := m.tier()
	m.release()
	if err != nil {
		return nil, err
	}
	resp := &transport.Response{Kept: kept, ComputeNs: time.Since(start).Nanoseconds()}
	resp.SetFrame(out)
	return resp, nil
}
