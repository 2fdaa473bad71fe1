package gmdj

//lint:deterministic vectorized evaluation must match the row engine byte-for-byte

import (
	"errors"
	"fmt"
	"runtime"

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
// once o is prepared.
func (c *Chain) evalVec(b *Base, o *op, opts SubOpts) (*agg.Slab, []int64, error) {
	pos := c.next
	accs, matched := c.states(o.specs, b.Len())

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
	workers := c.grow(W)
	n := b.Len()
	if W == 1 {
		workers[0].run(0, n, b, o, pos, accs, matched)
	} else {
		c.wg.Add(W)
		for w, ws := range workers {
			lo, hi := w*n/W, (w+1)*n/W
			go func() {
				defer c.wg.Done()
				ws.run(lo, hi, b, o, pos, accs, matched)
			}()
		}
		c.wg.Wait()
	}

	// Deterministic error choice for a fixed W: each worker records its
	// first error in its own (base row, θ) iteration order; pick the
	// minimum (θ, base row) across workers.
	var total vec.Stats
	var best *vecWorker
	for _, ws := range workers {
		total.Batches += ws.stats.Batches
		total.Rows += ws.stats.Rows
		total.FilterRows += ws.stats.FilterRows
		total.Selected += ws.stats.Selected
		if ws.err == nil {
			continue
		}
		if best == nil || ws.errTheta < best.errTheta || (ws.errTheta == best.errTheta && ws.errG < best.errG) {
			best = ws
		}
	}
	if opts.Stats != nil {
		opts.Stats.Batches += total.Batches
		opts.Stats.Rows += total.Rows
		opts.Stats.FilterRows += total.FilterRows
		opts.Stats.Selected += total.Selected
	}
	if best != nil {
		return nil, nil, best.err
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
// worker (programs); md.Validate has already bound every one of them.
func planThetas(base *relation.Schema, md *MD, bd, detailOnly expr.Binding, batch *vec.Batch) ([]thetaPlan, error) {
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
				bi, err := base.MustLookup(p.Base.Name)
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

// vecWorker is the per-worker state. The base row buffer (Base.row) and
// the programs persist across the operators of a Chain; the statistics and
// the first error hit (errTheta/errG locate it for the deterministic
// cross-worker pick) are per operator.
type vecWorker struct {
	row relation.Row
	ops []*compiled // by operator position

	stats    vec.Stats
	err      error
	errTheta int
	errG     int
}

// compiled are a worker's programs for op: θ_i's from specBase+i on, its
// residual (nil when trivial), then one per aggregate (nil for COUNT(*)),
// drawing their lane buffers from a scratch no other operator's share.
type compiled struct {
	op      *op
	progs   []*vec.Program
	scratch vec.Scratch
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

// programs returns the worker's programs for o at position pos, compiling
// them in place of what pos held unless it holds o's. Per-worker program
// instances: compiled nodes carry scratch vectors and per-base-row scalar
// caches, so they cannot be shared. A compile error fails the worker.
func (ws *vecWorker) programs(o *op, pos int) []*vec.Program {
	for len(ws.ops) <= pos {
		ws.ops = append(ws.ops, new(compiled))
	}
	cp := ws.ops[pos]
	if cp.op == o {
		return cp.progs
	}
	cp.op = nil
	cp.scratch.Reset()
	progs := cp.progs[:0]
	defer func() { cp.progs = progs }()
	for ti := range o.plans {
		pl := &o.plans[ti]
		var p *vec.Program
		if !pl.trivial {
			var err error
			if p, err = vec.Compile(pl.residual, o.bd, pl.detail, &cp.scratch); err != nil {
				ws.fail(ti, 0, fmt.Errorf("gmdj: θ_%d residual: %w", ti+1, err))
				return nil
			}
			p.SetStats(&ws.stats)
		}
		progs = append(progs, p)
		for _, spec := range pl.aggs {
			var q *vec.Program
			if spec.Arg != nil {
				var err error
				if q, err = vec.Compile(spec.Arg, o.detailOnly, pl.detail, &cp.scratch); err != nil {
					ws.fail(ti, 0, fmt.Errorf("gmdj: aggregate arg: %w", err))
					return nil
				}
				q.SetStats(&ws.stats)
			}
			progs = append(progs, q)
		}
	}
	cp.op = o
	return progs
}

// run evaluates base rows [lo, hi) of o, the operator at position pos.
func (ws *vecWorker) run(lo, hi int, b *Base, o *op, pos int, accs *agg.Slab, matched []int64) {
	ws.stats, ws.err = vec.Stats{}, nil
	progs := ws.programs(o, pos)
	if ws.err != nil {
		return
	}
	batch, plans := o.batch, o.plans
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
