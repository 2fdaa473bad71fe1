package gmdj

//lint:deterministic rendered query text must be stable for plan caching and tests

import (
	"fmt"
	"strings"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/vec"
)

// BaseDef defines how the base-values relation B_0 is computed from the
// detail relation: a set (duplicate-eliminating) projection of the listed
// columns, optionally restricted by a filter over the detail relation.
// This covers the paper's base-values queries (e.g. π_{SAS,DAS}(Flow)).
type BaseDef struct {
	Cols  []string
	Where expr.Expr // optional, over the detail relation only
}

// Query is a complex GMDJ expression in the paper's canonical shape: the
// result of each (inner) GMDJ is the base-values relation of the next.
type Query struct {
	Base BaseDef
	MDs  []MD
}

// Keys returns the key attributes K of the base-values relation. Because
// B_0 is a set projection, its projection columns form a key.
func (q Query) Keys() []string { return q.Base.Cols }

// DetailName resolves the detail relation an MD runs against, given the
// query's default detail name.
func (md MD) DetailName(def string) string {
	if md.Detail != "" {
		return md.Detail
	}
	return def
}

// DetailNames returns the distinct detail relation names the query
// touches, given the default name; the default (used by the base-values
// computation) always comes first.
func (q Query) DetailNames(def string) []string {
	out := []string{def}
	seen := map[string]struct{}{strings.ToLower(def): {}}
	for _, md := range q.MDs {
		n := md.DetailName(def)
		key := strings.ToLower(n)
		if _, dup := seen[key]; !dup {
			seen[key] = struct{}{}
			out = append(out, n)
		}
	}
	return out
}

// schemaFor picks an MD's detail schema out of a name-keyed map.
func schemaFor(schemas map[string]*relation.Schema, name string) (*relation.Schema, error) {
	for k, s := range schemas {
		if strings.EqualFold(k, name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("gmdj: no schema for detail relation %q", name)
}

// ValidateOn validates a query whose MDs may name different detail
// relations (the paper's R_k varying across rounds). schemas maps
// relation names to schemas; def is the default detail name (also the
// relation the base-values query runs over).
func (q Query) ValidateOn(schemas map[string]*relation.Schema, def string) error {
	defSchema, err := schemaFor(schemas, def)
	if err != nil {
		return err
	}
	base, err := q.BaseSchema(defSchema)
	if err != nil {
		return err
	}
	for i, md := range q.MDs {
		detail, err := schemaFor(schemas, md.DetailName(def))
		if err != nil {
			return fmt.Errorf("gmdj: MD_%d: %w", i+1, err)
		}
		if err := md.Validate(base, detail); err != nil {
			return fmt.Errorf("gmdj: MD_%d: %w", i+1, err)
		}
		base, err = base.Concat(outColumns(md)...)
		if err != nil {
			return fmt.Errorf("gmdj: MD_%d: %w", i+1, err)
		}
	}
	return nil
}

// BaseSchema returns the schema of B_0 for a given detail schema and
// validates the base definition.
func (q Query) BaseSchema(detail *relation.Schema) (*relation.Schema, error) {
	if len(q.Base.Cols) == 0 {
		return nil, fmt.Errorf("gmdj: base definition has no columns")
	}
	s, _, err := detail.Project(q.Base.Cols)
	if err != nil {
		return nil, fmt.Errorf("gmdj: base definition: %w", err)
	}
	if q.Base.Where != nil {
		bd := expr.SingleRelation(detail, "R", "F")
		if _, err := expr.Bind(q.Base.Where, bd); err != nil {
			return nil, fmt.Errorf("gmdj: base filter: %w", err)
		}
	}
	return s, nil
}

func outColumns(md MD) []relation.Column {
	var cols []relation.Column
	for _, s := range md.Specs() {
		cols = append(cols, s.OutColumn())
	}
	return cols
}

// EvalBase computes B_0 over a detail relation: filter then distinct
// projection.
func EvalBase(detail *relation.Relation, def BaseDef) (*relation.Relation, error) {
	src := detail
	if def.Where != nil {
		bd := expr.SingleRelation(detail.Schema, "R", "F")
		bound, err := expr.Bind(def.Where, bd)
		if err != nil {
			return nil, fmt.Errorf("gmdj: base filter: %w", err)
		}
		filtered := relation.New(detail.Schema)
		for _, row := range detail.Rows {
			ok, err := bound.EvalBool(nil, row)
			if err != nil {
				return nil, fmt.Errorf("gmdj: base filter: %w", err)
			}
			if ok {
				filtered.Rows = append(filtered.Rows, row)
			}
		}
		src = filtered
	}
	return src.DistinctProject(def.Cols)
}

// EvalBaseLanes is EvalBase over the detail batch, as the chain's base: a
// selection of the batch's lanes, read in place (baseLanes), so a site
// hashes and boxes no row per request. Its rows are EvalBase's on the
// relation the batch was built from, in the same first-seen scan order.
// def must not change while the chain keeps it (Chain).
func (c *Chain) EvalBaseLanes(batch *vec.Batch, def *BaseDef) (*Base, error) {
	ps, idx, lanes, err := c.baseLanes(batch, def)
	if err != nil {
		return nil, err
	}
	src, err := vec.FrameLanes(batch, idx, lanes)
	if err != nil {
		return nil, err
	}
	return c.newBase(Base{Schema: ps, n: lanes.Len(), lanes: src}), nil
}

// EvalBaseFrame is the frame of EvalBaseLanes' base, byte for byte the
// frame of EvalBase's relation.
func (c *Chain) EvalBaseFrame(batch *vec.Batch, def *BaseDef) (*relation.Frame, error) {
	b, err := c.EvalBaseLanes(batch, def)
	if err != nil {
		return nil, err
	}
	return relation.EncodeFrame(b.Schema, b.Len(), nil, b.Lanes()), nil
}

// baseLanes computes B_0 over the batch as its schema, the batch columns
// it projects and the lanes holding its rows, in first-seen scan order.
func (c *Chain) baseLanes(batch *vec.Batch, def *BaseDef) (*relation.Schema, []int, vec.Sel, error) {
	if c.def != def {
		c.def, c.filter = def, nil
		c.filterScratch.Reset()
	}
	sel := batch.AllLanes()
	if def.Where != nil {
		var err error
		if c.filter == nil {
			if c.filter, err = vec.Compile(def.Where, expr.SingleRelation(batch.Schema, "R", "F"), batch, &c.filterScratch); err != nil {
				return nil, nil, vec.Sel{}, fmt.Errorf("gmdj: base filter: %w", err)
			}
		}
		if sel, err = c.filter.Filter(sel); err != nil {
			return nil, nil, vec.Sel{}, fmt.Errorf("gmdj: base filter: %w", err)
		}
	}
	ps, idx, err := batch.Schema.Project(def.Cols)
	if err != nil {
		return nil, nil, vec.Sel{}, err
	}
	lanes, err := vec.Distinct(batch, idx, sel)
	if err != nil {
		return nil, nil, vec.Sel{}, err
	}
	return ps, idx, lanes, nil
}

// EvalQuery evaluates the complete GMDJ expression against a single
// (centralized) detail relation — the reference semantics the distributed
// executor must agree with.
func EvalQuery(detail *relation.Relation, q Query) (*relation.Relation, error) {
	return EvalQueryOn(map[string]*relation.Relation{"": detail}, "", q)
}

// EvalQueryOn is EvalQuery for queries spanning several detail relations:
// rels maps relation names to their (whole, centralized) contents and def
// names the default detail relation.
func EvalQueryOn(rels map[string]*relation.Relation, def string, q Query) (*relation.Relation, error) {
	schemas := make(map[string]*relation.Schema, len(rels))
	for k, r := range rels {
		schemas[k] = r.Schema
	}
	if err := q.ValidateOn(schemas, def); err != nil {
		return nil, err
	}
	relFor := func(name string) (*relation.Relation, error) {
		for k, r := range rels {
			if strings.EqualFold(k, name) {
				return r, nil
			}
		}
		return nil, fmt.Errorf("gmdj: no relation %q", name)
	}
	detail, err := relFor(def)
	if err != nil {
		return nil, err
	}
	b, err := EvalBase(detail, q.Base)
	if err != nil {
		return nil, err
	}
	for i, md := range q.MDs {
		r, err := relFor(md.DetailName(def))
		if err != nil {
			return nil, fmt.Errorf("gmdj: MD_%d: %w", i+1, err)
		}
		b, err = Eval(b, r, md)
		if err != nil {
			return nil, fmt.Errorf("gmdj: MD_%d: %w", i+1, err)
		}
	}
	return b, nil
}

// CanCoalesce reports whether two adjacent GMDJs can merge into one
// (Section 4.3): the second MD's conditions and aggregate arguments must
// not reference any attribute generated by the first. generated is the set
// of output column names of the first MD.
func CanCoalesce(md1, md2 MD, baseSchema *relation.Schema, detailSchema *relation.Schema) bool {
	generated := make(map[string]struct{})
	for _, s := range md1.Specs() {
		generated[strings.ToLower(s.As)] = struct{}{}
	}
	// Build the binding md2 sees: base extended with md1's outputs.
	ext, err := baseSchema.Concat(outColumns(md1)...)
	if err != nil {
		return false
	}
	bd := md2.Binding(ext, detailSchema)
	refsGenerated := func(e expr.Expr) bool {
		found := false
		expr.Walk(e, func(x expr.Expr) {
			c, ok := x.(expr.Col)
			if !ok {
				return
			}
			side, ok := bd.SideOf(c)
			if ok && side != expr.SideBase {
				return
			}
			// Base-side (or unresolvable) reference: generated?
			if _, gen := generated[strings.ToLower(c.Name)]; gen {
				found = true
			}
		})
		return found
	}
	for _, theta := range md2.Thetas {
		if refsGenerated(theta) {
			return false
		}
	}
	for _, s := range md2.Specs() {
		if s.Arg != nil && refsGenerated(s.Arg) {
			return false
		}
	}
	// Coalescing concatenates condition lists; both MDs must agree on
	// aliases (for identical binding) and on the detail relation (a
	// single operator scans a single R).
	if !strings.EqualFold(md1.Detail, md2.Detail) {
		return false
	}
	b1, d1 := md1.Aliases()
	b2, d2 := md2.Aliases()
	return strings.EqualFold(b1, b2) && strings.EqualFold(d1, d2)
}

// Coalesce merges adjacent coalescable MDs of the query (Section 4.3):
// MD2(MD1(B, R, l1, θ1), R, l2, θ2) = MD(B, R, l1·l2, θ1·θ2) whenever θ2
// does not reference attributes generated by MD1. It returns the rewritten
// query and the number of merges performed.
func Coalesce(q Query, detail *relation.Schema) (Query, int, error) {
	base, err := q.BaseSchema(detail)
	if err != nil {
		return q, 0, err
	}
	if len(q.MDs) == 0 {
		return q, 0, nil
	}
	merged := 0
	out := []MD{cloneMD(q.MDs[0])}
	for _, next := range q.MDs[1:] {
		last := &out[len(out)-1]
		if CanCoalesce(*last, next, base, detail) {
			last.Aggs = append(last.Aggs, next.Aggs...)
			last.Thetas = append(last.Thetas, next.Thetas...)
			merged++
			continue
		}
		// The base schema the following MD sees includes all outputs so far.
		base, err = base.Concat(outColumns(*last)...)
		if err != nil {
			return q, 0, err
		}
		out = append(out, cloneMD(next))
	}
	return Query{Base: q.Base, MDs: out}, merged, nil
}

func cloneMD(md MD) MD {
	out := md
	out.Aggs = append([][]agg.Spec(nil), md.Aggs...)
	out.Thetas = append([]expr.Expr(nil), md.Thetas...)
	return out
}
