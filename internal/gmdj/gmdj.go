// Package gmdj implements the GMDJ operator (Definition 1 of the paper):
// MD(B, R, (l_1..l_m), (θ_1..θ_m)) extends each base tuple b ∈ B with
// aggregates over RNG(b, R, θ_i) = {r ∈ R | θ_i(b, r)}.
//
// The package provides centralized row-at-a-time evaluation (the reference
// implementation the distributed executor and the site kernels are tested
// against), the sub-aggregate variant that ships primitive states
// (Theorem 1), which Skalla sites run against their local partitions on
// the columnar kernels of internal/vec, and the coalescing transform of
// Section 4.3.
//
// Evaluation follows the efficient strategy of [2,7]: equality conjuncts
// of θ_i are extracted and used to hash-partition B, so each scan of the
// detail relation probes matching base tuples instead of testing all of B.
// RNG sets may still overlap across base tuples (the residual condition is
// evaluated per candidate pair), which is exactly what makes GMDJ strictly
// more general than SQL GROUP BY.
package gmdj

//lint:deterministic GMDJ evaluation output must not depend on run or iteration order

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// MD is one GMDJ operator: m condition/aggregate-list pairs evaluated
// against a detail relation. Thetas[i] is θ_i and Aggs[i] its aggregate
// list l_i.
type MD struct {
	Aggs   [][]agg.Spec
	Thetas []expr.Expr

	// BaseAlias and DetailAlias are the qualifiers conditions use to
	// reference the two sides; they default to "B" and "R".
	BaseAlias   string
	DetailAlias string

	// Detail optionally names a different detail relation for this
	// operator (the paper's R_k may change across rounds); empty means
	// the query's default detail relation.
	Detail string
}

// Aliases returns the effective base and detail aliases.
func (md MD) Aliases() (string, string) {
	b, d := md.BaseAlias, md.DetailAlias
	if b == "" {
		b = "B"
	}
	if d == "" {
		d = "R"
	}
	return b, d
}

// Binding returns the expression binding for this MD over the given
// schemas.
func (md MD) Binding(base, detail *relation.Schema) expr.Binding {
	b, d := md.Aliases()
	return expr.Binding{
		Base: base, Detail: detail,
		BaseAliases:   []string{b},
		DetailAliases: []string{d, "F"}, // the paper's examples write F for Flow
	}
}

// Specs returns all aggregate specs of the MD in evaluation order.
func (md MD) Specs() []agg.Spec {
	var out []agg.Spec
	for _, l := range md.Aggs {
		out = append(out, l...)
	}
	return out
}

// Validate checks structural consistency and that every condition and
// aggregate argument binds against the schemas.
func (md MD) Validate(base, detail *relation.Schema) error {
	if len(md.Aggs) != len(md.Thetas) {
		return fmt.Errorf("gmdj: %d aggregate lists but %d conditions", len(md.Aggs), len(md.Thetas))
	}
	if len(md.Thetas) == 0 {
		return fmt.Errorf("gmdj: MD with no conditions")
	}
	bd := md.Binding(base, detail)
	detailOnly := expr.Binding{Detail: detail, DetailAliases: bd.DetailAliases}
	seen := make(map[string]struct{})
	for _, c := range base.Cols {
		seen[strings.ToLower(c.Name)] = struct{}{}
	}
	for i, theta := range md.Thetas {
		if theta == nil {
			return fmt.Errorf("gmdj: θ_%d is nil", i+1)
		}
		if _, err := expr.Bind(theta, bd); err != nil {
			return fmt.Errorf("gmdj: θ_%d: %w", i+1, err)
		}
		for _, s := range md.Aggs[i] {
			if s.As == "" {
				return fmt.Errorf("gmdj: aggregate %s in l_%d has no output name", s, i+1)
			}
			key := strings.ToLower(s.As)
			if _, dup := seen[key]; dup {
				return fmt.Errorf("gmdj: duplicate output column %q", s.As)
			}
			seen[key] = struct{}{}
			if s.Arg != nil {
				if _, err := expr.Bind(s.Arg, detailOnly); err != nil {
					return fmt.Errorf("gmdj: aggregate %s: %w", s, err)
				}
			}
		}
	}
	return nil
}

// SubOpts selects what EvalSub appends to the base columns and how the
// evaluation runs.
type SubOpts struct {
	// Finalize appends the finalized aggregate columns (named Spec.As)
	// after the primitive state columns.
	Finalize bool
	// Touched appends a TouchedCol count of detail matches across all θ_i.
	// It is positive iff |RNG(b, R, θ_1 ∨ ... ∨ θ_m)| > 0, the test of
	// Proposition 1 (distribution-independent group reduction).
	Touched bool
	// Workers bounds the evaluation's parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Stats, when set, accumulates this evaluation's vectorized kernel
	// statistics into the pointed-to struct: the one record a site's
	// profile and its vec.* metrics are read from.
	Stats *vec.Stats
	// DetailBatch optionally supplies a pre-built columnar batch of the
	// detail relation. EvalSub uses it when it has the relation's schema
	// and row count, and converts the relation otherwise.
	DetailBatch *vec.Batch
}

// TouchedCol is the name of the match-count column appended by
// SubOpts.Touched.
const TouchedCol = "__touched"

// Eval computes the GMDJ with fully finalized aggregate columns: the
// result schema is B's columns followed by one column per aggregate. This
// is Definition 1, and the centralized reference implementation.
func Eval(b, r *relation.Relation, md MD) (*relation.Relation, error) {
	return eval(b, r, md, false, true, false)
}

// EvalSub computes the sub-aggregate GMDJ of Theorem 1: the result schema
// is B's columns followed by primitive state columns per aggregate (and
// optionally finalized columns and the touched count). Primitive states
// from disjoint partitions of R merge at the coordinator into the same
// result Eval would give on the whole of R. It runs on the columnar
// kernels of internal/vec; the row-at-a-time eval is the reference the
// tests compare it against, and a detail relation whose values violate
// its declared column kinds is an error.
func EvalSub(b, r *relation.Relation, md MD, opts SubOpts) (*relation.Relation, error) {
	return new(Chain).EvalSub(b, r, md, opts)
}

// Chain evaluates the operators of one request — its fused base filter and
// the locally chained rounds of a synchronization-reduced plan — and keeps
// their working memory from one operator, and one request, to the next:
// each vectorized worker's lane and selection buffers, which an operator
// writes before it reads them, the operators' states, and the request's
// base with the finals its rounds append to it (Base). Operator i of a
// request takes the chain's slab i and match counts i, reset for its specs
// and base, so a request's states are distinct from one another and reuse
// the arrays of the largest request the chain served. It also keeps what
// it prepared (prepare, baseLanes): the operator prepared at position i
// runs again, compiled programs and all, for a request that hands the
// chain the same *MD there, and the base filter for the same *BaseDef. The
// caller hands either again only over the batch and base columns it was
// first handed with. Rewind ends a request. The zero value is ready to
// use; a Chain is not safe for concurrent use.
type Chain struct {
	workers []*vecWorker
	slabs   []*agg.Slab
	matched [][]int64
	ops     []*op // the operators prepared, by position in a request
	next    int   // the request's operators so far: the next takes slabs[next]
	base    Base  // the request's base, finals buffer and all
	most    int   // the most base rows the states and finals were sized for
	wg      sync.WaitGroup
	// The base filter prepared: def's, compiled over its batch.
	def           *BaseDef
	filter        *vec.Program
	filterScratch vec.Scratch
}

// Base is the base-values relation a chain's operators run over. Its own
// columns are a shipped base's boxed rows (RowBase) or, for a base the
// site computes from its detail batch, a selection of that batch's lanes
// (EvalBaseLanes); the finalized aggregates earlier operators add (Extend)
// follow them, column-major. A Base is its chain's memory: it stays valid
// until the chain's next base or request.
type Base struct {
	Schema *relation.Schema
	n      int
	rows   []relation.Row        // a shipped base's rows; nil for lanes
	lanes  []relation.LaneSource // a computed base's own columns
	finals []value.V             // Extend's columns, one run of n each
}

// Len returns the number of base rows.
func (b *Base) Len() int { return b.n }

// Lanes returns a computed base's own columns as lane sources; nil if shipped.
func (b *Base) Lanes() []relation.LaneSource { return b.lanes }

// Extend appends cols to b's schema and returns their values for the
// caller to fill before the next operator reads b: column j's value for
// base row i at j*Len()+i.
func (b *Base) Extend(cols ...relation.Column) ([]value.V, error) {
	s, err := b.Schema.Concat(cols...)
	if err != nil {
		return nil, err
	}
	off := len(b.finals)
	b.Schema, b.finals = s, slices.Grow(b.finals, len(cols)*b.n)[:off+len(cols)*b.n]
	return b.finals[off:], nil
}

// row returns base row g: a shipped row itself while the base has no
// finals, and otherwise the row built in *buf, own columns then finals.
func (b *Base) row(g int, buf *relation.Row) relation.Row {
	if b.lanes == nil && len(b.finals) == 0 {
		return b.rows[g]
	}
	row := (*buf)[:0]
	if b.lanes == nil {
		row = append(row, b.rows[g]...)
	}
	for _, l := range b.lanes {
		row = append(row, value.V{})
		l.Values(row[len(row)-1:], g, false)
	}
	for f := g; f < len(b.finals); f += b.n {
		row = append(row, b.finals[f])
	}
	*buf = row
	return row
}

// newBase makes b the chain's base, with the chain's finals buffer emptied:
// nothing past the buffer's length holds a value.
func (c *Chain) newBase(b Base) *Base {
	clear(c.base.finals)
	b.finals = c.base.finals[:0]
	c.base = b
	return &c.base
}

// RowBase returns r as the chain's base, its rows read as they are.
func (c *Chain) RowBase(r *relation.Relation) *Base {
	return c.newBase(Base{Schema: r.Schema, n: len(r.Rows), rows: r.Rows})
}

// grow returns the chain's first n workers, adding empty ones as needed;
// the next operator finds the buffers and programs this one left. Workers
// never move: their programs point at their scratch and statistics.
func (c *Chain) grow(n int) []*vecWorker {
	for len(c.workers) < n {
		c.workers = append(c.workers, new(vecWorker))
	}
	return c.workers[:n]
}

// Shrink drops the chain's states, match counts and finals buffer if they
// were sized for more than groups base rows, and keeps what it prepared: a
// chain held for long holds no more than that of the data it ran over.
func (c *Chain) Shrink(groups int) {
	if c.most > groups {
		c.slabs, c.matched, c.base.finals, c.most = nil, nil, nil, 0
	}
}

// Rewind ends a request: the next one's operators take the chain's states
// from the first on, overwriting what this one's left there, and the base,
// the workers' base rows and their programs' values (vec.Program.Release)
// are cleared, so the chain pins no value of this request.
func (c *Chain) Rewind() {
	c.next = 0
	c.newBase(Base{})
	for _, ws := range c.workers {
		clear(ws.row[:cap(ws.row)])
		for _, cp := range ws.ops {
			for _, p := range cp.progs {
				if p != nil {
					p.Release()
				}
			}
		}
	}
}

// states returns the next operator's empty states for specs over groups
// base rows: its slab and its match counts.
func (c *Chain) states(specs []agg.Spec, groups int) (*agg.Slab, []int64) {
	c.most = max(c.most, groups)
	if c.next == len(c.slabs) {
		c.slabs, c.matched = append(c.slabs, new(agg.Slab)), append(c.matched, nil)
	}
	s, m := c.slabs[c.next], c.matched[c.next]
	s.Reset(specs, groups)
	if cap(m) < groups {
		m = make([]int64, groups)
	} else {
		m = m[:groups]
		clear(m)
	}
	c.matched[c.next] = m
	c.next++
	return s, m
}

// EvalSub is the package-level EvalSub with the chain's scratch: the
// detail batch (opts.DetailBatch when it fits r, else r converted), then
// EvalStates, then the rows opts asks for.
func (c *Chain) EvalSub(b, r *relation.Relation, md MD, opts SubOpts) (*relation.Relation, error) {
	detail := opts.DetailBatch
	if detail == nil || detail.Schema != r.Schema || detail.Len() != len(r.Rows) {
		var err error
		if detail, err = vec.FromRelation(r); err != nil {
			return nil, fmt.Errorf("gmdj: detail relation: %w", err)
		}
	}
	accs, matched, err := c.EvalStates(c.RowBase(b), detail, &md, opts)
	if err != nil {
		return nil, err
	}
	return assemble(b, accs, matched, true, opts.Finalize, opts.Touched)
}

// EvalStates evaluates md over the detail batch like EvalSub but boxes
// nothing: it returns the primitive states, group i of the slab answering
// base row i, and each base row's detail match count over every θ_i (what
// Touched appends). Both are the chain's memory: they stay valid until
// the chain's next request starts (Rewind), and the request's later
// operators take states of their own. Of opts it reads only how the
// evaluation runs. md must not change while the chain keeps it (Chain).
func (c *Chain) EvalStates(b *Base, detail *vec.Batch, md *MD, opts SubOpts) (*agg.Slab, []int64, error) {
	o, err := c.prepare(b.Schema, detail, md)
	if err != nil {
		return nil, nil, err
	}
	return c.evalVec(b, o, opts)
}

// op is an MD prepared over one detail batch and base columns: validated,
// its θs planned; each worker compiles its programs once (programs).
type op struct {
	md         *MD
	batch      *vec.Batch
	specs      []agg.Spec
	bd         expr.Binding
	detailOnly expr.Binding
	plans      []thetaPlan
}

// prepare returns the operator at the chain's next position: the one
// prepared there before if it is md's, else md prepared anew in its place
// and that of every later one.
func (c *Chain) prepare(base *relation.Schema, detail *vec.Batch, md *MD) (*op, error) {
	if c.next < len(c.ops) && c.ops[c.next].md == md {
		return c.ops[c.next], nil
	}
	if err := md.Validate(base, detail.Schema); err != nil {
		return nil, err
	}
	o := &op{md: md, batch: detail, specs: md.Specs(), bd: md.Binding(base, detail.Schema)}
	o.detailOnly = expr.Binding{Detail: detail.Schema, DetailAliases: o.bd.DetailAliases}
	var err error
	if o.plans, err = planThetas(base, md, o.bd, o.detailOnly, detail); err != nil {
		return nil, err
	}
	c.ops = append(c.ops[:c.next], o)
	return o, nil
}

// outputSchema builds the result schema shared by both engines: base
// columns, then per-spec prim columns and/or finalized columns, then the
// touched counter.
func outputSchema(base *relation.Schema, specs []agg.Spec, prims, final, touched bool) (*relation.Schema, error) {
	outCols := append([]relation.Column(nil), base.Cols...)
	if prims {
		for _, s := range specs {
			outCols = append(outCols, s.SubColumns()...)
		}
	}
	if final {
		for _, s := range specs {
			outCols = append(outCols, s.OutColumn())
		}
	}
	if touched {
		outCols = append(outCols, relation.Column{Name: TouchedCol, Kind: value.KindInt})
	}
	outSchema, err := relation.NewSchema(outCols...)
	if err != nil {
		return nil, fmt.Errorf("gmdj: output schema: %w", err)
	}
	return outSchema, nil
}

// assemble materializes the output rows from the per-base-row slab and
// match-count state — shared by both engines so their outputs are
// byte-identical.
func assemble(b *relation.Relation, accs *agg.Slab, matched []int64, prims, final, touched bool) (*relation.Relation, error) {
	specs := accs.Specs()
	outSchema, err := outputSchema(b.Schema, specs, prims, final, touched)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Rows = relation.MakeRows(len(b.Rows), outSchema.Len())
	for gi, bRow := range b.Rows {
		row := append(out.Rows[gi], bRow...)
		if prims {
			for p := 0; p < accs.Width(); p++ {
				row = append(row, accs.Result(gi, p))
			}
		}
		if final {
			for si, s := range specs {
				v, err := accs.Finalize(gi, si)
				if err != nil {
					return nil, fmt.Errorf("gmdj: finalize %s: %w", s, err)
				}
				row = append(row, v)
			}
		}
		if touched {
			row = append(row, value.NewInt(matched[gi]))
		}
		out.Rows[gi] = row
	}
	return out, nil
}

func eval(b, r *relation.Relation, md MD, prims, final, touched bool) (*relation.Relation, error) {
	if err := md.Validate(b.Schema, r.Schema); err != nil {
		return nil, err
	}
	// Primitive states per base row.
	accs := agg.NewSlab(md.Specs(), len(b.Rows))
	matched := make([]int64, len(b.Rows))

	bd := md.Binding(b.Schema, r.Schema)
	detailOnly := expr.Binding{Detail: r.Schema, DetailAliases: bd.DetailAliases}

	// One scan of the detail relation per θ_i.
	specBase := 0
	for ti, theta := range md.Thetas {
		pairs := expr.EquiPairs(theta, bd)
		residual, err := expr.Bind(expr.Residual(theta, bd, pairs), bd)
		if err != nil {
			return nil, fmt.Errorf("gmdj: θ_%d residual: %w", ti+1, err)
		}

		// Bind this θ's aggregate arguments once.
		type argEval struct {
			spec  int
			bound *expr.Bound // nil for COUNT(*)
		}
		args := make([]argEval, len(md.Aggs[ti]))
		for j, s := range md.Aggs[ti] {
			ae := argEval{spec: specBase + j}
			if s.Arg != nil {
				bnd, err := expr.Bind(s.Arg, detailOnly)
				if err != nil {
					return nil, fmt.Errorf("gmdj: aggregate %s: %w", s, err)
				}
				ae.bound = bnd
			}
			args[j] = ae
		}

		// Candidate lookup: hash B on the equi columns when available.
		var probe func(rRow relation.Row) ([]int, error)
		if len(pairs) > 0 {
			bIdx := make([]int, len(pairs))
			rIdx := make([]int, len(pairs))
			for i, p := range pairs {
				bi, err := b.Schema.MustLookup(p.Base.Name)
				if err != nil {
					return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
				}
				ri, err := r.Schema.MustLookup(p.Detail.Name)
				if err != nil {
					return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
				}
				bIdx[i], rIdx[i] = bi, ri
			}
			index := make(map[string][]int, len(b.Rows))
			for pos, row := range b.Rows {
				k := relation.RowKey(row, bIdx)
				index[k] = append(index[k], pos)
			}
			keyBuf := make([]value.V, len(rIdx))
			probe = func(rRow relation.Row) ([]int, error) {
				for i, ri := range rIdx {
					keyBuf[i] = rRow[ri]
				}
				var sb strings.Builder
				for _, v := range keyBuf {
					sb.WriteString(v.Key())
					sb.WriteByte('\x1f')
				}
				return index[sb.String()], nil
			}
		} else {
			all := make([]int, len(b.Rows))
			for i := range all {
				all[i] = i
			}
			probe = func(relation.Row) ([]int, error) { return all, nil }
		}

		for _, rRow := range r.Rows {
			cands, err := probe(rRow)
			if err != nil {
				return nil, err
			}
			for _, gi := range cands {
				ok, err := residual.EvalBool(b.Rows[gi], rRow)
				if err != nil {
					return nil, fmt.Errorf("gmdj: θ_%d: %w", ti+1, err)
				}
				if !ok {
					continue
				}
				matched[gi]++
				for _, ae := range args {
					var v value.V
					if ae.bound == nil {
						v = value.NewInt(1) // COUNT(*): any non-NULL marker
					} else {
						v, err = ae.bound.Eval(nil, rRow)
						if err != nil {
							return nil, fmt.Errorf("gmdj: aggregate arg: %w", err)
						}
					}
					lo, hi := accs.SpecPrims(ae.spec)
					for p := lo; p < hi; p++ {
						if err := accs.Add(gi, p, v); err != nil {
							return nil, fmt.Errorf("gmdj: %w", err)
						}
					}
				}
			}
		}
		specBase += len(md.Aggs[ti])
	}

	return assemble(b, accs, matched, prims, final, touched)
}
