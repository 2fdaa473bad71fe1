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

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/gmdj"
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

// Step is one network round of a plan: the coordinator ships the current
// base-result structure (or, for a fused first step, nothing), each
// participating site evaluates the listed MDs of the (possibly rewritten)
// query as a local chain, and the coordinator synchronizes the returned
// sub-aggregates. Steps with more than one MD are the synchronization
// reduction of Theorem 5: no synchronization happens between their MDs.
type Step struct {
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
}

// Plan is a distributed evaluation plan for a GMDJ query.
type Plan struct {
	// Query is the (possibly coalesced) query to evaluate.
	Query gmdj.Query
	// Detail names the detail relation at the sites.
	Detail string
	// Keys are the key attributes K of the base-values relation.
	Keys []string
	// BaseRound is true when an initial synchronization round computes
	// and merges the base-values relation before any MD runs.
	BaseRound bool
	// Steps are the MD rounds, in order.
	Steps []Step
	// Touched enables distribution-independent group reduction on every
	// step (sites filter untouched groups before shipping).
	Touched bool
	// SiteFilters maps site ID to a per-step base filter (Theorem 4);
	// nil entries mean "ship everything". Filters are expressions over
	// the base relation with alias B.
	SiteFilters map[string][]expr.Expr
	// Notes records the optimizer's decisions for explain output.
	Notes []string
}

// Rounds returns the number of synchronization rounds the plan performs:
// one per step plus one for a separate base round. (The paper counts an
// m-operator expression as m+1 rounds unoptimized.)
func (p *Plan) Rounds() int {
	n := len(p.Steps)
	if p.BaseRound {
		n++
	}
	return n
}

// Explain renders a human-readable description of the plan.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d round(s) over detail %q, keys (%s)\n",
		p.Rounds(), p.Detail, strings.Join(p.Keys, ", "))
	if p.BaseRound {
		fmt.Fprintf(&b, "  round 0: compute base π{%s} at sites, synchronize\n",
			strings.Join(p.Query.Base.Cols, ", "))
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  step %d: MDs %v", i+1, mdNums(s.MDs))
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
	if len(p.SiteFilters) > 0 {
		b.WriteString("  coordinator-side group reduction filters:\n")
		for site, fs := range p.SiteFilters {
			for step, f := range fs {
				if f != nil {
					fmt.Fprintf(&b, "    %s step %d: %s\n", site, step+1, f)
				}
			}
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
