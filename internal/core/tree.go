package core

//lint:wrap-errors relay errors must preserve child causes for errors.Is/As

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agg"
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
// associatively, so any intermediate tier may combine them keyed on K —
// or, for a request that ships a base, by position over the shipped Base
// rows, which every child answered. A keyed request must carry
// Request.Keys for the relay to merge (a base request merges on its
// BaseCols); without keys the relay degrades to pass-through unioning.
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

	case transport.OpEvalBase, transport.OpEvalRounds:
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

// evalRounds forwards an evaluation request and pre-merges the children's
// fragments (mergeFragments). Base fragments merge keyed on the base
// columns, with no aggregates: a set union.
func (r *Relay) evalRounds(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	start := time.Now()
	resps, err := r.fanout(ctx, req)
	if err != nil {
		return nil, err
	}
	for i, resp := range resps {
		if resp.Rel == nil {
			return nil, fmt.Errorf("child %d returned no relation", i)
		}
	}
	keys := req.Keys
	if req.Op == transport.OpEvalBase {
		keys = req.BaseCols
	}
	var out transport.Response
	if req.ShipsBase() || len(keys) > 0 {
		err = mergeFragments(resps, req, keys, &out)
	} else {
		// No merge keys: pass-through union (still one message upstream).
		out.Rel = relation.New(resps[0].Rel.Schema)
		for _, resp := range resps {
			if err = out.Rel.Union(resp.Rel); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	out.ComputeNs = time.Since(start).Nanoseconds()
	return &out, nil
}

// mergeFragments combines the children's sub-aggregate fragments into
// out: primitive columns merge via their accumulators. Under a request
// that ships a base the groups are the shipped Base rows, every child's
// states-only reply resolves by position, and out is a states-only reply
// whose Kept bitmap is the union of the children's. Otherwise groups
// resolve on keys, and all other columns (base values, earlier finalized
// aggregates) are identical per group and taken from the first
// occurrence.
func mergeFragments(resps []*transport.Response, req *transport.Request, keys []string, out *transport.Response) error {
	// Parse the round specs to learn which columns are primitive states.
	var specs []agg.Spec
	for _, round := range req.Rounds {
		for _, list := range round.Aggs {
			for _, text := range list {
				spec, err := agg.ParseSpec(text)
				if err != nil {
					return err
				}
				specs = append(specs, spec)
			}
		}
	}
	if req.ShipsBase() {
		m, err := newKeyedMerge(req.Base.Schema, req.Base.Rows, nil, specs)
		if err != nil {
			return err
		}
		m.kept = make([]byte, (req.Base.Len()+7)/8)
		for _, resp := range resps {
			if err := m.merge(resp.Rel, placement{shipped: req.Base.Len(), kept: resp.Kept}); err != nil {
				return err
			}
		}
		out.Rel, out.Kept, err = m.keptStates()
		return err
	}
	schema := resps[0].Rel.Schema
	m, err := newKeyedMerge(schema, nil, keys, specs)
	if err != nil {
		return fmt.Errorf("merge keys: %w", err)
	}
	wholeRow := make([]int, schema.Len()) // a new group keeps its first-seen row
	for i := range wholeRow {
		wholeRow[i] = i
	}
	for _, resp := range resps {
		if !resp.Rel.Schema.Equal(schema) {
			return fmt.Errorf("fragment schemas differ: %s vs %s", resp.Rel.Schema, schema)
		}
		if err := m.mergeKeyed(resp.Rel, wholeRow); err != nil {
			return err
		}
	}
	out.Rel, err = m.states(schema)
	return err
}
