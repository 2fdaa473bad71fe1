package core

//lint:wrap-errors relay errors must preserve child causes for errors.Is/As

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
)

// Relay is a middle tier of a multi-tier (spanning-tree) coordinator
// architecture — the future-work direction of Section 6 of the paper. A
// relay looks like a single site to its parent (it implements
// transport.Handler) while fanning requests out to its children and
// pre-merging their sub-aggregate fragments before answering, so upstream
// traffic shrinks from the sum of the children's fragments to one merged
// fragment per round.
//
// Pre-merging is possible for exactly the same reason coordinator
// synchronization is (Theorem 1): primitive aggregate states merge
// associatively, so any intermediate tier may combine them keyed on K.
// The parent must set Request.Keys on OpEvalRounds for the relay to merge;
// without keys the relay degrades to pass-through unioning.
//
// A relay threads the request context it receives into every child call,
// so cancellation and deadlines propagate down the whole coordinator
// tree: when a parent abandons a relay call, the relay's own fan-out is
// cancelled and the subtree stops working on the discarded request
// instead of finishing it in the background.
type Relay struct {
	children []transport.Client

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
	return &Relay{children: children, leafOffset: leafOffset, totalLeaves: totalLeaves}, nil
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
	case transport.OpPing:
		_, err := r.fanout(ctx, req)
		return &transport.Response{}, err

	case transport.OpRelInfo:
		resp, err := r.children[0].Call(ctx, req)
		if err != nil {
			return nil, err
		}
		return resp, resp.Error()

	case transport.OpDrop:
		_, err := r.fanout(ctx, req)
		return &transport.Response{}, err

	case transport.OpLoad:
		// A relay cannot split a shipped relation meaningfully; load
		// data at the leaves (or use OpGenerate).
		return nil, fmt.Errorf("cannot load through a relay; load at the leaf sites")

	case transport.OpGenerate:
		if req.Gen == nil {
			return nil, fmt.Errorf("no generator spec")
		}
		start := time.Now()
		resps := make([]*transport.Response, len(r.children))
		errs := make([]error, len(r.children))
		var wg sync.WaitGroup
		for i, child := range r.children {
			wg.Add(1)
			go func(i int, child transport.Client) {
				defer wg.Done()
				sub := *req
				gen := *req.Gen
				gen.Site = r.leafOffset + i
				gen.NumSites = r.totalLeaves
				sub.Gen = &gen
				resp, err := child.Call(ctx, &sub)
				if err == nil {
					err = resp.Error()
				}
				resps[i], errs[i] = resp, err
			}(i, child)
		}
		wg.Wait()
		total := 0
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			total += resps[i].RowCount
		}
		return &transport.Response{RowCount: total, ComputeNs: time.Since(start).Nanoseconds()}, nil

	case transport.OpEvalBase:
		start := time.Now()
		resps, err := r.fanout(ctx, req)
		if err != nil {
			return nil, err
		}
		var parts []*relation.Relation
		for _, resp := range resps {
			parts = append(parts, resp.Rel)
		}
		merged, err := unionDistinct(parts)
		if err != nil {
			return nil, err
		}
		return &transport.Response{Rel: merged, ComputeNs: time.Since(start).Nanoseconds()}, nil

	case transport.OpEvalRounds:
		return r.evalRounds(ctx, req)

	default:
		return nil, fmt.Errorf("unsupported op %s", req.Op)
	}
}

// fanout sends the same request to every child in parallel under the
// caller's context.
func (r *Relay) fanout(ctx context.Context, req *transport.Request) ([]*transport.Response, error) {
	resps := make([]*transport.Response, len(r.children))
	errs := make([]error, len(r.children))
	var wg sync.WaitGroup
	for i, child := range r.children {
		wg.Add(1)
		go func(i int, child transport.Client) {
			defer wg.Done()
			resp, err := child.Call(ctx, req)
			if err == nil {
				err = resp.Error()
			}
			resps[i], errs[i] = resp, err
		}(i, child)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// evalRounds forwards the round request and pre-merges the children's
// fragments keyed on Request.Keys.
func (r *Relay) evalRounds(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	start := time.Now()
	resps, err := r.fanout(ctx, req)
	if err != nil {
		return nil, err
	}
	frags := make([]*relation.Relation, len(resps))
	for i, resp := range resps {
		if resp.Rel == nil {
			return nil, fmt.Errorf("child %d returned no relation", i)
		}
		frags[i] = resp.Rel
	}
	if len(req.Keys) == 0 {
		// No merge keys: pass-through union (still one message upstream).
		out := relation.New(frags[0].Schema)
		for _, f := range frags {
			if err := out.Union(f); err != nil {
				return nil, err
			}
		}
		return &transport.Response{Rel: out, ComputeNs: time.Since(start).Nanoseconds()}, nil
	}
	merged, err := mergeFragments(frags, req)
	if err != nil {
		return nil, err
	}
	return &transport.Response{Rel: merged, ComputeNs: time.Since(start).Nanoseconds()}, nil
}

// mergeFragments combines sub-aggregate fragments of one schema:
// primitive columns merge via their accumulators, the touched counter
// sums, and all other columns (base values, earlier finalized aggregates)
// are identical per group and taken from the first occurrence.
func mergeFragments(frags []*relation.Relation, req *transport.Request) (*relation.Relation, error) {
	schema := frags[0].Schema

	// Parse the round specs to learn which columns are primitive states.
	var specs []agg.Spec
	for _, round := range req.Rounds {
		for _, list := range round.Aggs {
			for _, text := range list {
				spec, err := agg.ParseSpec(text)
				if err != nil {
					return nil, err
				}
				specs = append(specs, spec)
			}
		}
	}
	_, sumTouched := schema.Lookup(gmdj.TouchedCol)
	m, err := newKeyedMerge(schema, nil, req.Keys, specs, sumTouched)
	if err != nil {
		return nil, fmt.Errorf("merge keys: %w", err)
	}
	wholeRow := make([]int, schema.Len()) // a new group keeps its first-seen row
	for i := range wholeRow {
		wholeRow[i] = i
	}
	for _, f := range frags {
		if !f.Schema.Equal(schema) {
			return nil, fmt.Errorf("fragment schemas differ: %s vs %s", f.Schema, schema)
		}
		if err := m.merge(f, wholeRow); err != nil {
			return nil, err
		}
	}
	return m.states(schema)
}
