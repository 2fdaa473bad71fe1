// Package core implements the paper's primary contribution: distributed
// evaluation of complex OLAP queries expressed as GMDJ expressions.
//
// It contains the Egil query optimizer, which turns a gmdj.Query plus
// catalog knowledge into a distributed evaluation Plan applying the
// paper's optimizations (coalescing §4.3, distribution-aware group
// reduction Theorem 4, distribution-independent group reduction
// Proposition 1, base-synchronization elision Proposition 2, and
// synchronization reduction Theorem 5/Corollary 1), and the coordinator
// implementing Alg. GMDJDistribEval: rounds of local site computation
// followed by synchronization of sub-aggregates into the base-result
// structure, keyed on the base relation key K (Theorem 1).
package core

//lint:deterministic EXPLAIN must render identically run to run

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/transport"
)

// Options selects which of the paper's optimizations the optimizer may
// apply. The zero value disables everything (the baseline the paper's
// experiments compare against); DefaultOptions enables all.
type Options struct {
	// Coalesce merges adjacent GMDJs into one operator when the second
	// does not reference the first's outputs (§4.3).
	Coalesce bool
	// GroupReduceSites enables distribution-independent group reduction
	// (Proposition 1): sites return only groups with |RNG| > 0.
	GroupReduceSites bool
	// GroupReduceCoord enables distribution-aware group reduction
	// (Theorem 4): the coordinator ships each site only the base tuples
	// its partition can possibly match, using catalog domains.
	GroupReduceCoord bool
	// SyncReduce enables base-synchronization elision (Proposition 2)
	// and full synchronization reduction (Theorem 5 / Corollary 1).
	SyncReduce bool
}

// DefaultOptions enables every optimization.
var DefaultOptions = Options{
	Coalesce:         true,
	GroupReduceSites: true,
	GroupReduceCoord: true,
	SyncReduce:       true,
}

// Step is one network round of a plan, prepared once by Egil: the request
// every site's copy starts from, the aggregates its replies carry and the
// per-site filters of what it ships. Every step's request is OpEvalRounds,
// and there are three kinds. The base step (BaseCols and no MDs) computes
// the base-values relation at the sites; the coordinator merges the
// fragments into X keyed on K, which is the request's BaseCols. A fused
// step (BaseCols and MDs, FuseBase in the plan) computes the base locally
// and evaluates its MDs against it, so nothing is shipped and its replies
// bring the groups, keyed on K as well. Every other step ships X, cut per site, and merges the
// states-only replies by position. Steps with more than one MD are the
// synchronization reduction of Theorem 5: no synchronization happens
// between their MDs. A relay tier runs a one-step plan rebuilt from the
// request it was sent.
type Step struct {
	// Name is the round the step runs as ("base", "step N"): the name of
	// its RoundStats.
	Name string
	// MDs are indices into Plan.Query.MDs evaluated in this round.
	MDs []int
	// FuseBase makes the sites compute the base-values relation locally
	// at the start of this step instead of receiving it (Proposition 2).
	// Only valid on the first step.
	FuseBase bool
	// Ship names the columns of X this step ships, in X's order: the keys
	// K plus every X column a θ of the step reads. The optimizer sets it
	// on every step that ships X; nil ships X whole.
	Ship []string
	// Request is the step's request to every site; a step that ships X
	// adds the site's cut of X as Base.
	Request transport.Request
	// Specs are the aggregate specs of the step's MDs, in order: the
	// primitive states its replies carry.
	Specs []agg.Spec
	// Filters are the step's Theorem-4 site filters; a site without one
	// receives every row. Each is bound against xSchema, the schema of the
	// X the step ships from.
	Filters []SiteFilter
	xSchema *relation.Schema
	// room is how many columns this step and the later ones append to X's
	// rows: what the merge leaves free in every group row it boxes.
	room int
	// partition lists the partition attributes every θ of the step's MDs
	// equates (R.A = B.A, Definition 2). Each is a base column, so in K:
	// on a fused step each group then lives at exactly one site.
	partition []string
}

// SiteFilter is one site's Theorem-4 base filter for one step: an
// expression over X with alias B, keeping only the rows the site's
// partition can match.
type SiteFilter struct {
	Site   string
	Filter *expr.Bound
}

// base reports whether the step is the base round.
func (s *Step) base() bool { return len(s.MDs) == 0 }

// ships reports whether the step ships X, and so gets states-only replies:
// it evaluates rounds without computing its base (Request.ShipsBase).
func (s *Step) ships() bool {
	return s.Request.Op == transport.OpEvalRounds && len(s.Request.BaseCols) == 0
}

// disjoint reports whether the step's replies bring site-disjoint groups
// (Corollary 1), so the coordinator folds them by position instead of
// matching them by key: a fused step whose θs equate a partition attribute.
func (s *Step) disjoint() bool { return s.FuseBase && len(s.partition) > 0 }

// filter returns the step's filter for site, or nil.
func (s *Step) filter(site string) *expr.Bound {
	for _, f := range s.Filters {
		if f.Site == site {
			return f.Filter
		}
	}
	return nil
}

// Plan is a distributed evaluation plan for a GMDJ query.
type Plan struct {
	// Query is the (possibly coalesced) query to evaluate.
	Query gmdj.Query
	// Detail names the detail relation at the sites.
	Detail string
	// Keys are the key attributes K of the base-values relation.
	Keys []string
	// Steps are the rounds, in the order they run: the base round first
	// when the plan has one, then the MD rounds.
	Steps []Step
	// Touched enables distribution-independent group reduction on every
	// step (sites filter untouched groups before shipping).
	Touched bool
	// Notes records the optimizer's decisions for explain output.
	Notes []string
}

// Rounds returns the number of synchronization rounds the plan performs.
// (The paper counts an m-operator expression as m+1 rounds unoptimized.)
func (p *Plan) Rounds() int { return len(p.Steps) }

// stepFilter is one filter of a plan: a site's filter for steps[step].
type stepFilter struct {
	SiteFilter
	step int
}

// siteFilters lists the filters of steps ordered by site ID, then step:
// the order EXPLAIN prints them and PlanEpoch hashes them in.
func siteFilters(steps []Step) []stepFilter {
	var out []stepFilter
	for si := range steps {
		for _, f := range steps[si].Filters {
			out = append(out, stepFilter{f, si})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Explain renders a human-readable description of the plan.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d round(s) over detail %q, keys (%s)\n",
		p.Rounds(), p.Detail, strings.Join(p.Keys, ", "))
	for _, s := range p.Steps {
		if s.base() {
			fmt.Fprintf(&b, "  round 0: compute base π{%s} at sites, synchronize\n",
				strings.Join(p.Query.Base.Cols, ", "))
			continue
		}
		fmt.Fprintf(&b, "  %s: MDs %v", s.Name, mdNums(s.MDs))
		if len(s.MDs) > 1 {
			b.WriteString(" as local chain (sync reduction)")
		}
		if s.FuseBase {
			b.WriteString(", base fused (no base sync)")
		}
		if s.Ship != nil {
			fmt.Fprintf(&b, ", ships X{%s}", strings.Join(s.Ship, ", "))
		}
		b.WriteByte('\n')
	}
	if p.Touched {
		b.WriteString("  site-side group reduction: on (|RNG|>0 filter)\n")
	}
	if fs := siteFilters(p.Steps); len(fs) > 0 {
		b.WriteString("  coordinator-side group reduction filters:\n")
		for _, f := range fs {
			fmt.Fprintf(&b, "    %s %s: %s\n", f.Site, p.Steps[f.step].Name, f.Filter.Expr())
		}
	}
	for _, n := range p.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func mdNums(idx []int) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = v + 1
	}
	return out
}
