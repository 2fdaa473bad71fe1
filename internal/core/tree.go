package core

//lint:wrap-errors relay errors must preserve child causes for errors.Is/As

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agg"
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
// fails the request. The request context reaches every child call, so a
// parent abandoning a relay call stops the whole subtree.
type Relay struct {
	coord *Coordinator

	// leafOffset and totalLeaves describe where this relay's leaves sit
	// in the global leaf numbering, so OpGenerate partitions correctly
	// across the whole tree.
	leafOffset  int
	totalLeaves int
}

// NewRelay builds a relay over child clients. The relay's children
// generate partitions leafOffset..leafOffset+len(children)-1 of
// totalLeaves when asked to synthesize datasets.
func NewRelay(children []transport.Client, leafOffset, totalLeaves int) (*Relay, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("core: relay needs children")
	}
	if leafOffset < 0 || totalLeaves < leafOffset+len(children) {
		return nil, fmt.Errorf("core: relay leaves %d..%d exceed total %d",
			leafOffset, leafOffset+len(children)-1, totalLeaves)
	}
	return &Relay{coord: NewCoordinator(children...), leafOffset: leafOffset, totalLeaves: totalLeaves}, nil
}

// Handle implements transport.Handler.
func (r *Relay) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	resp, err := r.handle(ctx, req)
	if err != nil {
		return &transport.Response{Err: fmt.Sprintf("relay: %v", err)}
	}
	return resp
}

func (r *Relay) handle(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	switch req.Op {
	case transport.OpPing, transport.OpDrop, transport.OpRelInfo:
		return r.broadcast(ctx, func(int) *transport.Request { return req })

	case transport.OpLoad:
		// A relay cannot split a shipped relation meaningfully; load
		// data at the leaves (or use OpGenerate).
		return nil, fmt.Errorf("cannot load through a relay; load at the leaf sites")

	case transport.OpGenerate:
		if req.Gen == nil {
			return nil, fmt.Errorf("no generator spec")
		}
		return r.broadcast(ctx, func(i int) *transport.Request {
			sub, gen := *req, *req.Gen
			gen.Site, gen.NumSites = r.leafOffset+i, r.totalLeaves
			sub.Gen = &gen
			return &sub
		})

	case transport.OpEvalBase, transport.OpEvalRounds:
		return r.eval(ctx, req)

	default:
		return nil, fmt.Errorf("unsupported op %s", req.Op)
	}
}

// broadcast sends every child the request req builds for it and answers
// for the subtree: the children's row counts summed (relInfo's and
// generate's rows) beside the first child's relation (relInfo's schema).
// A child's error fails it.
func (r *Relay) broadcast(ctx context.Context, req func(i int) *transport.Request) (*transport.Response, error) {
	start := time.Now()
	resps, errs := r.coord.broadcast(ctx, req)
	out := &transport.Response{}
	for i, resp := range resps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.RowCount += resp.RowCount
		if out.Rel == nil {
			out.Rel = resp.Rel
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
	rel, kept, err := m.tier()
	return &transport.Response{Rel: rel, Kept: kept, ComputeNs: time.Since(start).Nanoseconds()}, err
}
