package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
)

// Egil is the GMDJ query optimizer of the Skalla system. Given a query,
// the detail schema, and catalog knowledge, it produces a distributed
// evaluation Plan applying the optimizations enabled in Options.
type Egil struct {
	Catalog *catalog.Catalog
	Options Options
}

// BuildPlan compiles a query over a single detail relation into a
// distributed evaluation plan.
func (e Egil) BuildPlan(q gmdj.Query, detailName string, detail *relation.Schema) (*Plan, error) {
	return e.BuildPlanSchemas(q, detailName, map[string]*relation.Schema{detailName: detail})
}

// BuildPlanSchemas compiles a query whose MDs may run against different
// detail relations (the paper's R_k varying across rounds). schemas maps
// every referenced detail relation name to its schema; detailName is the
// default (the relation the base-values query runs over).
func (e Egil) BuildPlanSchemas(q gmdj.Query, detailName string, schemas map[string]*relation.Schema) (*Plan, error) {
	if err := q.ValidateOn(schemas, detailName); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	detail, err := detailSchema(schemas, detailName)
	if err != nil {
		return nil, err
	}
	mdSchemas := make([]*relation.Schema, len(q.MDs))
	for i, md := range q.MDs {
		mdSchemas[i], err = detailSchema(schemas, md.DetailName(detailName))
		if err != nil {
			return nil, err
		}
	}
	plan := &Plan{Detail: detailName, Keys: q.Keys()}

	// O3: coalesce adjacent GMDJs (the transform itself refuses to merge
	// MDs over different detail relations).
	if e.Options.Coalesce {
		cq, merged, err := gmdj.Coalesce(q, detail)
		if err != nil {
			return nil, fmt.Errorf("core: coalesce: %w", err)
		}
		if merged > 0 {
			plan.Notes = append(plan.Notes,
				fmt.Sprintf("coalesced %d GMDJ(s) (%d → %d operators)", merged, len(q.MDs), len(cq.MDs)))
			// Recompute per-MD schemas for the rewritten chain.
			mdSchemas = mdSchemas[:0]
			for _, md := range cq.MDs {
				ds, err := detailSchema(schemas, md.DetailName(detailName))
				if err != nil {
					return nil, err
				}
				mdSchemas = append(mdSchemas, ds)
			}
		}
		q = cq
	}
	plan.Query = q

	// Cumulative base schemas: schema seen by MD k.
	baseSchemas, err := cumulativeSchemas(q, detail)
	if err != nil {
		return nil, err
	}

	// O5: synchronization reduction — find maximal runs of consecutive
	// MDs that all carry an equality on a common partition attribute
	// (Theorem 5 / Corollary 1). MDs inside a run evaluate locally with
	// no synchronization in between.
	var steps []Step
	if e.Options.SyncReduce && e.Catalog != nil {
		steps = e.chainSteps(q, mdSchemas, baseSchemas, plan)
	} else {
		for i := range q.MDs {
			steps = append(steps, Step{MDs: []int{i}})
		}
	}

	// O4: base-synchronization elision (Proposition 2) — fuse the base
	// computation into the first step when every θ of the first step's
	// MDs entails equality on the full key K. (All MDs of the first
	// step matter: they all run against the locally computed base.)
	fuse := false
	if e.Options.SyncReduce && len(steps) > 0 {
		fuse = true
		for _, mi := range steps[0].MDs {
			md := q.MDs[mi]
			bd := md.Binding(baseSchemas[mi], mdSchemas[mi])
			for _, theta := range md.Thetas {
				if !expr.EntailsKeyEquality(theta, bd, q.Keys()) {
					fuse = false
				}
			}
		}
		if fuse {
			steps[0].FuseBase = true
			plan.Notes = append(plan.Notes,
				"base synchronization elided (Proposition 2): every θ of step 1 entails key equality")
			if len(steps[0].partition) > 0 {
				plan.Notes = append(plan.Notes, fmt.Sprintf(
					"final synchronization checks that groups are site-disjoint on %s (Corollary 1)",
					strings.Join(steps[0].partition, ", ")))
			}
		}
	}
	for si := range steps {
		if !steps[si].FuseBase {
			steps[si].Ship = shipSet(q, steps[si], baseSchemas[steps[si].MDs[0]])
		}
	}

	// O2: distribution-independent group reduction.
	plan.Touched = e.Options.GroupReduceSites

	// O1: distribution-aware group reduction — derive per-site base
	// filters from catalog domains for every step that ships the base.
	if e.Options.GroupReduceCoord && e.Catalog != nil && e.deriveFilters(q, mdSchemas, baseSchemas, steps) {
		plan.Notes = append(plan.Notes,
			"distribution-aware group reduction (Theorem 4): per-site base filters derived from catalog domains")
	}
	prepare(plan, steps)
	return plan, nil
}

// prepare makes the plan's step list, the program the coordinator runs: a
// base round first unless the first MD step fuses it, then the MD steps,
// each with its name, its aggregate specs and the request its sites receive.
func prepare(plan *Plan, steps []Step) {
	q := plan.Query
	where := whereText(q.Base.Where)
	if len(steps) == 0 || !steps[0].FuseBase {
		plan.Steps = append(plan.Steps, Step{Name: "base", Request: transport.Request{
			Op: transport.OpEvalRounds, Detail: plan.Detail, BaseCols: q.Base.Cols, BaseWhere: where}})
	}
	for si, step := range steps {
		step.Name = fmt.Sprintf("step %d", si+1)
		req := transport.Request{Op: transport.OpEvalRounds}
		if step.FuseBase {
			req.Detail, req.BaseCols, req.BaseWhere = plan.Detail, q.Base.Cols, where
			req.SiteDisjoint = len(step.partition) > 0
		}
		for _, mi := range step.MDs {
			md := q.MDs[mi]
			step.Specs = append(step.Specs, md.Specs()...)
			bAlias, dAlias := md.Aliases()
			spec := transport.RoundSpec{
				Detail:      md.DetailName(plan.Detail),
				BaseAlias:   bAlias,
				DetailAlias: dAlias,
				Finalize:    len(step.MDs) > 1,
				// Dropping untouched groups is unsafe when the
				// coordinator never sees the full base (fused step):
				// a group untouched at every site would vanish from
				// the result instead of keeping empty aggregates.
				Touched: plan.Touched && !step.FuseBase,
			}
			for i, theta := range md.Thetas {
				spec.Thetas = append(spec.Thetas, theta.String())
				var aggs []string
				for _, s := range md.Aggs[i] {
					aggs = append(aggs, s.String())
				}
				spec.Aggs = append(spec.Aggs, aggs)
			}
			req.Rounds = append(req.Rounds, spec)
		}
		step.Request = req
		plan.Steps = append(plan.Steps, step)
	}
	room := 0
	for i := len(plan.Steps) - 1; i >= 0; i-- {
		room += len(plan.Steps[i].Specs)
		plan.Steps[i].room = room
	}
}

func whereText(e expr.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// detailSchema picks a schema by relation name, case-insensitively.
func detailSchema(schemas map[string]*relation.Schema, name string) (*relation.Schema, error) {
	for k, s := range schemas {
		if strings.EqualFold(k, name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("core: no schema for detail relation %q", name)
}

// cumulativeSchemas returns, for each MD index, the base schema that MD
// sees (B0's columns plus the outputs of all earlier MDs).
func cumulativeSchemas(q gmdj.Query, detail *relation.Schema) ([]*relation.Schema, error) {
	s, err := q.BaseSchema(detail)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := make([]*relation.Schema, len(q.MDs))
	for i, md := range q.MDs {
		out[i] = s
		var cols []relation.Column
		for _, spec := range md.Specs() {
			cols = append(cols, spec.OutColumn())
		}
		s, err = s.Concat(cols...)
		if err != nil {
			return nil, fmt.Errorf("core: MD_%d outputs: %w", i+1, err)
		}
	}
	return out, nil
}

// shipSet returns the columns of X (schema x, in its order) a step's
// sites read: the keys K plus every column a θ of the step references,
// qualified with its MD's base alias or unqualified. A column an earlier
// MD of a chained step produces is computed at the site and is not in x.
func shipSet(q gmdj.Query, step Step, x *relation.Schema) []string {
	read := map[string]bool{}
	for _, k := range q.Keys() {
		read[strings.ToLower(k)] = true
	}
	for _, mi := range step.MDs {
		bAlias, _ := q.MDs[mi].Aliases()
		for _, theta := range q.MDs[mi].Thetas {
			for _, c := range expr.Cols(theta) {
				if c.Qual == "" || strings.EqualFold(c.Qual, bAlias) {
					read[strings.ToLower(c.Name)] = true
				}
			}
		}
	}
	var ship []string
	for _, c := range x.Cols {
		if read[strings.ToLower(c.Name)] {
			ship = append(ship, c.Name)
		}
	}
	return ship
}

// chainSteps groups consecutive MDs into synchronization-free runs, each
// step recording the partition attributes its run shares.
func (e Egil) chainSteps(q gmdj.Query, mdSchemas []*relation.Schema, baseSchemas []*relation.Schema, plan *Plan) []Step {
	// partAttrs[i] = the set of partition attributes A with an
	// R.A = B.A equality in every θ of MD i.
	partAttrs := make([]map[string]struct{}, len(q.MDs))
	for i, md := range q.MDs {
		bd := md.Binding(baseSchemas[i], mdSchemas[i])
		var common map[string]struct{}
		for _, theta := range md.Thetas {
			cur := map[string]struct{}{}
			for det, base := range expr.EquiDetailAttrs(theta, bd) {
				if det == base && e.Catalog.IsPartitionAttr(det) {
					cur[det] = struct{}{}
				}
			}
			if common == nil {
				common = cur
			} else {
				for a := range common {
					if _, ok := cur[a]; !ok {
						delete(common, a)
					}
				}
			}
		}
		partAttrs[i] = common
	}

	var steps []Step
	i := 0
	for i < len(q.MDs) {
		run := []int{i}
		shared := partAttrs[i]
		j := i + 1
		for j < len(q.MDs) && len(shared) > 0 {
			next := intersect(shared, partAttrs[j])
			if len(next) == 0 {
				break
			}
			shared = next
			run = append(run, j)
			j++
		}
		partition := sortedKeys(shared)
		if len(run) > 1 {
			plan.Notes = append(plan.Notes, fmt.Sprintf(
				"synchronization reduction (Corollary 1): MDs %v chained locally on partition attribute(s) %s",
				mdNums(run), strings.Join(partition, ", ")))
		}
		steps = append(steps, Step{MDs: run, partition: partition})
		i = j
	}
	return steps
}

func intersect(a, b map[string]struct{}) map[string]struct{} {
	out := map[string]struct{}{}
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deriveFilters sets the Theorem 4 site filters of each step that ships the
// base structure, bound once against the X the step ships from, and
// reports whether it derived any.
func (e Egil) deriveFilters(q gmdj.Query, mdSchemas []*relation.Schema, baseSchemas []*relation.Schema, steps []Step) bool {
	any := false
	for si := range steps {
		step := &steps[si]
		if step.FuseBase {
			continue // nothing is shipped for a fused step
		}
		// The filter must be safe for every θ of every MD in the step: a
		// group is shippable only if no θ can match it. Side
		// classification uses the widest binding of the step (later MDs
		// of a chain reference columns the first MD's schema lacks).
		// Steps mixing detail relations would need per-θ bindings; stay
		// conservative and skip them.
		mixed := false
		for _, mi := range step.MDs[1:] {
			if mdSchemas[mi] != mdSchemas[step.MDs[0]] {
				mixed = true
			}
		}
		if mixed {
			continue
		}
		var thetas []expr.Expr
		last := step.MDs[len(step.MDs)-1]
		bd := q.MDs[last].Binding(baseSchemas[last], mdSchemas[last])
		for _, mi := range step.MDs {
			thetas = append(thetas, q.MDs[mi].Thetas...)
		}
		// The filter runs at the coordinator against the X shipped at
		// this step, whose schema is that of the step's first MD. A
		// derived constraint referencing a column generated inside the
		// step (e.g. B.sum1 from a chained MD1) cannot be evaluated
		// there; drop the filter in that case.
		first := step.MDs[0]
		bAlias, _ := q.MDs[first].Aliases()
		shipBd := expr.Binding{Base: baseSchemas[first], BaseAliases: []string{bAlias}}
		step.xSchema = shipBd.Base
		for _, site := range e.Catalog.Sites {
			if len(site.Domains) == 0 {
				continue
			}
			f := expr.DeriveSiteFilter(thetas, bd, site.Domains)
			if f == nil {
				continue
			}
			bound, err := expr.Bind(f, shipBd)
			if err != nil {
				continue
			}
			step.Filters = append(step.Filters, SiteFilter{Site: site.ID, Filter: bound})
			any = true
		}
	}
	return any
}
