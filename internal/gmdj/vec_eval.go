package gmdj

//lint:deterministic vectorized evaluation must match the row engine byte-for-byte

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// Vectorized GMDJ evaluation. The plan per θ_i mirrors the row engine:
// equality conjuncts are extracted, the residual is evaluated per candidate
// pair, and matched detail rows feed the aggregate accumulators. The
// orientation flips, though: instead of hashing B and scanning R row by
// row, the DETAIL side is grouped by equi key once (vec.Grouping), and
// each base row resolves its key to one group, filters the group's lanes
// with a compiled column-program, and accumulates the matched lanes
// column-wise, on the grouping's clustered view, where a group's lanes
// are one contiguous run.
//
// Byte-exactness with the row engine follows from two invariants:
//   - group lanes keep detail scan order (the view's permutation is
//     stable) and Filter preserves selection order, so every accumulator
//     folds exactly the values the row engine's detail scan would feed
//     it, in the same order (float accumulation is order-sensitive);
//   - each base row is owned by exactly one worker (a contiguous index
//     range of B), so accumulator state is single-writer and the
//     merge-free result is identical for any worker count.
//
// On evaluation errors the two engines agree on error presence (the same
// (base row, detail row, θ) combinations are evaluated), but may surface a
// different one first because iteration order differs.

// evalVec is the vectorized counterpart of eval, and what EvalStates runs
// once md is validated against b and the detail batch.
func (c *Chain) evalVec(b *Base, batch *vec.Batch, md MD, opts SubOpts) (*agg.Slab, []int64, error) {
	bd := md.Binding(b.Schema, batch.Schema)
	detailOnly := expr.Binding{Detail: batch.Schema, DetailAliases: bd.DetailAliases}

	plans, err := planThetas(b, md, bd, detailOnly, batch)
	if err != nil {
		return nil, nil, err
	}

	accs, matched := c.states(md.Specs(), b.Len())

	// Worker partitioning: each worker owns a contiguous range of base
	// rows, so the accs/matched slots it writes are disjoint from every
	// other worker's — single-owner state, no locks, and a result
	// independent of W.
	W := opts.Workers
	if W <= 0 {
		W = runtime.GOMAXPROCS(0)
	}
	if W > b.Len() {
		W = b.Len()
	}
	if W < 1 {
		W = 1
	}
	states := c.grow(W)
	n := b.Len()
	if W == 1 {
		states[0].run(0, n, b, batch, bd, detailOnly, plans, accs, matched)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				states[w].run(w*n/W, (w+1)*n/W, b, batch, bd, detailOnly, plans, accs, matched)
			}(w)
		}
		wg.Wait()
	}

	// Deterministic error choice for a fixed W: each worker records its
	// first error in its own (base row, θ) iteration order; pick the
	// minimum (θ, base row) across workers.
	var total vec.Stats
	best := -1
	for w := range states {
		total.Batches += states[w].stats.Batches
		total.Rows += states[w].stats.Rows
		total.FilterRows += states[w].stats.FilterRows
		total.Selected += states[w].stats.Selected
		if states[w].err == nil {
			continue
		}
		if best < 0 ||
			states[w].errTheta < states[best].errTheta ||
			(states[w].errTheta == states[best].errTheta && states[w].errG < states[best].errG) {
			best = w
		}
	}
	if opts.Stats != nil {
		opts.Stats.Batches += total.Batches
		opts.Stats.Rows += total.Rows
		opts.Stats.FilterRows += total.FilterRows
		opts.Stats.Selected += total.Selected
	}
	if best >= 0 {
		return nil, nil, states[best].err
	}
	return accs, matched, nil
}

// thetaPlan is the static, worker-shared plan for one θ_i.
type thetaPlan struct {
	residual expr.Expr
	// trivial marks a constant-TRUE residual (a pure equi condition):
	// every candidate lane matches and the filter pass is skipped.
	trivial bool
	// aggs is l_i; its specs are specBase.. in the MD's flattened order.
	aggs     []agg.Spec
	specBase int
	bIdx     []int // base positions of the equi key; nil when no equi pairs
	// groups are the detail lanes by equi key, each group one key in scan
	// order; nil when the condition has no equi pairs (every lane is a
	// candidate). Probed concurrently, never mutated.
	groups *vec.Grouping
	detail *vec.Batch // what the programs read: groups' view, or the batch
}

// planThetas builds the shared per-θ plans: equi keys, detail-side key
// groupings and their clustered views. Residuals and arguments compile per
// worker (run); md.Validate has already bound every one of them.
func planThetas(b *Base, md MD, bd, detailOnly expr.Binding, batch *vec.Batch) ([]thetaPlan, error) {
	plans := make([]thetaPlan, len(md.Thetas))
	specBase := 0
	for ti, theta := range md.Thetas {
		pl := &plans[ti]
		pairs := expr.EquiPairs(theta, bd)
		pl.residual = expr.Residual(theta, bd, pairs)
		pl.trivial = expr.IsTrue(pl.residual)
		pl.detail = batch
		if len(pairs) > 0 {
			pl.bIdx = make([]int, len(pairs))
			rIdx := make([]int, len(pairs))
			for i, p := range pairs {
				bi, err := b.Schema.MustLookup(p.Base.Name)
				if err != nil {
					return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
				}
				ri, err := batch.Schema.MustLookup(p.Detail.Name)
				if err != nil {
					return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
				}
				pl.bIdx[i], rIdx[i] = bi, ri
			}
			var err error
			if pl.groups, err = batch.Grouping(rIdx); err != nil {
				return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
			}
			var buf [8]int // the column list stays on the stack
			cols := detailCols(pl.residual, bd, batch.Schema, buf[:0])
			for _, spec := range md.Aggs[ti] {
				if spec.Arg != nil {
					cols = detailCols(spec.Arg, detailOnly, batch.Schema, cols)
				}
			}
			if pl.detail, err = pl.groups.View(cols); err != nil {
				return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
			}
		}
		pl.aggs, pl.specBase = md.Aggs[ti], specBase
		specBase += len(md.Aggs[ti])
	}
	return plans, nil
}

// detailCols appends to cols the detail columns e reads under bd.
func detailCols(e expr.Expr, bd expr.Binding, detail *relation.Schema, cols []int) []int {
	expr.Walk(e, func(x expr.Expr) {
		c, ok := x.(expr.Col)
		if !ok {
			return
		}
		if side, ok := bd.SideOf(c); ok && side == expr.SideDetail {
			if i, ok := detail.Lookup(c.Name); ok {
				cols = append(cols, i)
			}
		}
	})
	return cols
}

// vecWorker is the per-worker state. The scratch, program and base row
// (Base.row) buffers persist across the operators of a Chain; the
// statistics and the first error hit (errTheta/errG locate it for the
// deterministic cross-worker pick) are per operator.
type vecWorker struct {
	scratch vec.Scratch
	row     relation.Row
	// progs holds an operator's programs: θ_i's from specBase+i on, its
	// residual (nil when trivial), then one per aggregate (nil for
	// COUNT(*)).
	progs []*vec.Program

	stats    vec.Stats
	err      error
	errTheta int
	errG     int
}

// errAccStop aborts EvalEach when an accumulator rejects a value, so the
// accumulator error is distinguishable from an argument evaluation error
// (the row engine wraps the two differently).
var errAccStop = errors.New("gmdj: accumulator stop")

func (ws *vecWorker) fail(ti, g int, err error) {
	ws.err = err
	ws.errTheta = ti
	ws.errG = g
}

// run evaluates base rows [lo, hi).
func (ws *vecWorker) run(lo, hi int, b *Base, batch *vec.Batch,
	bd, detailOnly expr.Binding, plans []thetaPlan,
	accs *agg.Slab, matched []int64) {
	ws.stats, ws.err = vec.Stats{}, nil
	// The previous operator's programs are gone; their lane buffers serve
	// this operator's.
	ws.scratch.Reset()
	// Per-worker program instances: compiled nodes carry scratch vectors
	// and per-base-row scalar caches, so they cannot be shared.
	progs := ws.progs[:0]
	defer func() {
		// The programs die with the operator; their slots stay.
		ws.progs = progs
		clear(progs)
	}()
	for ti := range plans {
		pl := &plans[ti]
		var p *vec.Program
		if !pl.trivial {
			var err error
			if p, err = vec.Compile(pl.residual, bd, pl.detail, &ws.scratch); err != nil {
				ws.fail(ti, 0, fmt.Errorf("gmdj: θ_%d residual: %w", ti+1, err))
				return
			}
			p.SetStats(&ws.stats)
		}
		progs = append(progs, p)
		for _, spec := range pl.aggs {
			var q *vec.Program
			if spec.Arg != nil {
				var err error
				if q, err = vec.Compile(spec.Arg, detailOnly, pl.detail, &ws.scratch); err != nil {
					ws.fail(ti, 0, fmt.Errorf("gmdj: aggregate arg: %w", err))
					return
				}
				q.SetStats(&ws.stats)
			}
			progs = append(progs, q)
		}
	}

	for g := lo; g < hi; g++ {
		row := b.row(g, &ws.row)
		for ti := range plans {
			pl := &plans[ti]
			// With equi pairs the candidates are the one detail key group
			// the base row's key names — the exact match rule of the row
			// engine's Key() probe — and without them every lane.
			cands := batch.AllLanes()
			if pl.groups != nil {
				cands = pl.groups.Find(row, pl.bIdx)
			}
			if cands.Len() == 0 {
				// No candidate pairs: the row engine evaluates nothing
				// for this base row, not even scalar subtrees.
				continue
			}
			sel := cands
			if res := progs[pl.specBase+ti]; res != nil {
				res.SetBase(row)
				var err error
				if sel, err = res.Filter(cands); err != nil {
					ws.fail(ti, g, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err))
					return
				}
			}
			matched[g] += int64(sel.Len())
			if sel.Len() == 0 {
				continue
			}
			for j := range pl.aggs {
				p0, p1 := accs.SpecPrims(pl.specBase + j)
				prog := progs[pl.specBase+ti+1+j]
				if prog == nil {
					// COUNT(*): the row engine adds a non-NULL int
					// marker per matched pair.
					for p := p0; p < p1; p++ {
						aerr := accs.AddRows(g, p, sel.Len())
						if aerr != nil {
							aerr = accs.AddRepeat(g, p, value.NewInt(1), sel.Len())
						}
						if aerr != nil {
							ws.fail(ti, g, fmt.Errorf("gmdj: %w", aerr))
							return
						}
					}
					continue
				}
				prog.SetBase(row)
				var accErr error
				err := prog.EvalEach(sel, func(l *vec.Lanes) error {
					for p := p0; p < p1; p++ {
						if e := feedAcc(accs, g, p, l); e != nil {
							accErr = e
							return errAccStop
						}
					}
					return nil
				})
				if err != nil {
					if errors.Is(err, errAccStop) {
						err = fmt.Errorf("gmdj: %w", accErr)
					} else {
						err = fmt.Errorf("gmdj: aggregate arg: %w", err)
					}
					ws.fail(ti, g, err)
					return
				}
			}
		}
	}
}

// feedAcc folds an evaluated argument vector into slot g of primitive p's
// lane, a whole typed vector at a time when it has one and boxed per value
// otherwise.
func feedAcc(s *agg.Slab, g, p int, l *vec.Lanes) error {
	if l.Const {
		return s.AddRepeat(g, p, l.ConstV, l.N)
	}
	switch l.Kind {
	case value.KindBool, value.KindInt:
		return s.AddInts(g, p, l.Kind, l.Ints[:l.N], l.Nulls)
	case value.KindFloat:
		return s.AddFloats(g, p, l.Floats[:l.N], l.Nulls)
	case value.KindNull:
		return s.AddRepeat(g, p, value.Null, l.N)
	default:
		// Dictionary strings and boxed lanes (a CASE or call mixing kinds)
		// feed per value; min/max and distinct-count states need the boxed
		// value anyway.
		for i := 0; i < l.N; i++ {
			if err := s.Add(g, p, l.Value(i)); err != nil {
				return err
			}
		}
		return nil
	}
}
