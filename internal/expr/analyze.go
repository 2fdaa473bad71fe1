package expr

import (
	"math"
	"strings"

	"repro/internal/value"
)

// This file implements the static analyses behind the paper's distributed
// optimizations:
//
//   - side classification and equi-pair extraction (used everywhere),
//   - Domain: what values an attribute can take in a site's partition
//     (the predicate φ_i of Theorem 4),
//   - interval arithmetic over detail-side expressions,
//   - DeriveSiteFilter: the ¬ψ_i condition of Theorem 4 (distribution-aware
//     group reduction),
//   - EntailsKeyEquality: the θ_j ⇒ θ_K test of Proposition 2, and
//   - EquiDetailAttrs: the partition-attribute entailment of Corollary 1.

// SidesUsed reports which sides of the binding e references. Columns that
// fail to resolve count as both sides, keeping callers conservative.
func SidesUsed(e Expr, bd Binding) (base, detail bool) {
	Walk(e, func(x Expr) {
		c, ok := x.(Col)
		if !ok {
			return
		}
		side, ok := bd.SideOf(c)
		if !ok {
			base, detail = true, true
			return
		}
		if side == SideBase {
			base = true
		} else {
			detail = true
		}
	})
	return base, detail
}

// EquiPair is an equality conjunct pairing a base column with a detail
// column, as in F.SourceAS = B.SourceAS.
type EquiPair struct {
	Base   Col
	Detail Col
}

// EquiPairs extracts the top-level equality conjuncts of theta that pair a
// detail column with a base column. These drive the hash-partitioned GMDJ
// evaluation and the entailment tests.
func EquiPairs(theta Expr, bd Binding) []EquiPair {
	var out []EquiPair
	for _, cj := range Conjuncts(theta) {
		b, ok := cj.(Binary)
		if !ok || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(Col)
		rc, rok := b.R.(Col)
		if !lok || !rok {
			continue
		}
		ls, lok := bd.SideOf(lc)
		rs, rok := bd.SideOf(rc)
		if !lok || !rok || ls == rs {
			continue
		}
		if ls == SideBase {
			out = append(out, EquiPair{Base: lc, Detail: rc})
		} else {
			out = append(out, EquiPair{Base: rc, Detail: lc})
		}
	}
	return out
}

// Residual returns theta minus the given equi-pair conjuncts, i.e. the
// part that must still be evaluated per (b, r) pair after hash matching.
// It returns the constant TRUE when nothing remains.
func Residual(theta Expr, bd Binding, pairs []EquiPair) Expr {
	isPair := func(cj Expr) bool {
		b, ok := cj.(Binary)
		if !ok || b.Op != "=" {
			return false
		}
		lc, lok := b.L.(Col)
		rc, rok := b.R.(Col)
		if !lok || !rok {
			return false
		}
		for _, p := range pairs {
			if (colEq(lc, p.Base) && colEq(rc, p.Detail)) ||
				(colEq(lc, p.Detail) && colEq(rc, p.Base)) {
				return true
			}
		}
		return false
	}
	var rest []Expr
	for _, cj := range Conjuncts(theta) {
		if !isPair(cj) {
			rest = append(rest, cj)
		}
	}
	return And(rest...)
}

func colEq(a, b Col) bool {
	return strings.EqualFold(a.Qual, b.Qual) && strings.EqualFold(a.Name, b.Name)
}

// EntailsKeyEquality reports whether theta's top-level conjuncts include an
// equality pairing some detail column with the base key column k, for
// every k in keys. This is the operational form of "θ_j entails θ_K"
// (Proposition 2): matching detail tuples agree with b on all of K.
func EntailsKeyEquality(theta Expr, bd Binding, keys []string) bool {
	pairs := EquiPairs(theta, bd)
	for _, k := range keys {
		found := false
		for _, p := range pairs {
			if strings.EqualFold(p.Base.Name, k) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// EquiDetailAttrs returns, for each detail attribute appearing in a
// top-level equi conjunct of theta, the base attribute it is equated with.
// Corollary 1's check — every θ entails R.A = f(A) on a partition
// attribute A — reduces to intersecting these maps across all θs and
// testing the surviving detail attributes for partition-attribute status.
func EquiDetailAttrs(theta Expr, bd Binding) map[string]string {
	out := make(map[string]string)
	for _, p := range EquiPairs(theta, bd) {
		out[strings.ToLower(p.Detail.Name)] = strings.ToLower(p.Base.Name)
	}
	return out
}

// Domain describes the set of values an attribute can take within one
// site's partition of the detail relation — the φ_i of Theorem 4. Either
// an explicit finite set, an interval, or both bounds of an interval may
// be present.
type Domain struct {
	Set            []value.V // non-nil: exactly these values
	HasMin, HasMax bool
	Min, Max       value.V
}

// DomainSet returns a finite-set domain. DomainSet() with no values is the
// empty domain.
func DomainSet(vals ...value.V) Domain {
	if vals == nil {
		vals = []value.V{}
	}
	return Domain{Set: vals}
}

// DomainRange returns an inclusive interval domain.
func DomainRange(min, max value.V) Domain {
	return Domain{HasMin: true, HasMax: true, Min: min, Max: max}
}

// Interval returns the numeric interval covering the domain, when one can
// be computed. A bound of magnitude 2^53 or more is left open (see
// bounded), and so are an empty set's.
func (d Domain) Interval() (Interval, bool) {
	var iv Interval
	if d.Set != nil {
		iv = Interval{HasLo: true, HasHi: true, Lo: math.Inf(1), Hi: math.Inf(-1)}
		for _, v := range d.Set {
			f, err := v.AsFloat()
			if err != nil {
				return Interval{}, false
			}
			iv.Lo = math.Min(iv.Lo, f)
			iv.Hi = math.Max(iv.Hi, f)
		}
	} else {
		lo, lerr := d.Min.AsFloat()
		hi, herr := d.Max.AsFloat()
		if d.HasMin && lerr != nil || d.HasMax && herr != nil {
			return Interval{}, false
		}
		iv = Interval{HasLo: d.HasMin, Lo: lo, HasHi: d.HasMax, Hi: hi}
	}
	iv = bounded(iv)
	return iv, iv.HasLo || iv.HasHi
}

// ToExpr renders the domain as a membership predicate on the given
// expression, suitable for filtering the base relation.
func (d Domain) ToExpr(x Expr) Expr {
	if d.Set != nil {
		return InList{X: x, Vals: append([]value.V(nil), d.Set...)}
	}
	switch {
	case d.HasMin && d.HasMax:
		return Between{X: x, Lo: Const{d.Min}, Hi: Const{d.Max}}
	case d.HasMin:
		return Binary{Op: ">=", L: x, R: Const{d.Min}}
	case d.HasMax:
		return Binary{Op: "<=", L: x, R: Const{d.Max}}
	default:
		return Const{Val: value.NewBool(true)}
	}
}

// Empty reports whether the domain is known to contain no values.
func (d Domain) Empty() bool { return d.Set != nil && len(d.Set) == 0 }

// Interval is a (possibly half-open) numeric interval with inclusive
// bounds, used for conservative range reasoning over detail expressions.
type Interval struct {
	HasLo, HasHi bool
	Lo, Hi       float64
}

// exact reports whether a bound f is below 2^53 in magnitude. An INT
// converted to float64 there is exact, and so is an integer sum,
// difference or product of such bounds that stays there; past it a
// conversion rounds, inward as often as outward, so a filter derived from
// it could drop a base row the condition matches. NaN is not exact.
func exact(f float64) bool { return math.Abs(f) < 1<<53 }

// bounded leaves every endpoint of iv that is not exact open: no bound on
// that side is always sound.
func bounded(iv Interval) Interval {
	if iv.HasLo && !exact(iv.Lo) {
		iv.HasLo, iv.Lo = false, 0
	}
	if iv.HasHi && !exact(iv.Hi) {
		iv.HasHi, iv.Hi = false, 0
	}
	return iv
}

// point returns the degenerate interval [f, f], open past 2^53.
func point(f float64) Interval { return bounded(Interval{HasLo: true, HasHi: true, Lo: f, Hi: f}) }

func addIv(a, b Interval) Interval {
	return bounded(Interval{
		HasLo: a.HasLo && b.HasLo, Lo: a.Lo + b.Lo,
		HasHi: a.HasHi && b.HasHi, Hi: a.Hi + b.Hi,
	})
}

func subIv(a, b Interval) Interval {
	return bounded(Interval{
		HasLo: a.HasLo && b.HasHi, Lo: a.Lo - b.Hi,
		HasHi: a.HasHi && b.HasLo, Hi: a.Hi - b.Lo,
	})
}

func negIv(a Interval) Interval {
	return Interval{HasLo: a.HasHi, Lo: -a.Hi, HasHi: a.HasLo, Hi: -a.Lo}
}

func mulIv(a, b Interval) Interval {
	// Multiplication needs all four bounds; give up on open intervals.
	if !(a.HasLo && a.HasHi && b.HasLo && b.HasHi) {
		return Interval{}
	}
	cands := [4]float64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return bounded(Interval{HasLo: true, Lo: lo, HasHi: true, Hi: hi})
}

func divIv(a, b Interval) Interval {
	if !(a.HasLo && a.HasHi && b.HasLo && b.HasHi) {
		return Interval{}
	}
	// Only safe when the divisor interval excludes zero.
	if b.Lo <= 0 && b.Hi >= 0 {
		return Interval{}
	}
	cands := [4]float64{a.Lo / b.Lo, a.Lo / b.Hi, a.Hi / b.Lo, a.Hi / b.Hi}
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		lo = math.Min(lo, c)
		hi = math.Max(hi, c)
	}
	return bounded(Interval{HasLo: true, Lo: lo, HasHi: true, Hi: hi})
}

// IntervalOf computes a conservative interval for a detail-side expression
// given per-column domains (keyed by lower-cased column name). The boolean
// result is false when no bound at all could be established.
func IntervalOf(e Expr, bd Binding, domains map[string]Domain) (Interval, bool) {
	iv := intervalOf(e, bd, domains)
	return iv, iv.HasLo || iv.HasHi
}

func intervalOf(e Expr, bd Binding, domains map[string]Domain) Interval {
	switch n := e.(type) {
	case Const:
		f, err := n.Val.AsFloat()
		if err != nil {
			return Interval{}
		}
		return point(f)
	case Col:
		if side, ok := bd.SideOf(n); !ok || side != SideDetail {
			return Interval{}
		}
		d, ok := domains[strings.ToLower(n.Name)]
		if !ok {
			return Interval{}
		}
		iv, _ := d.Interval()
		return iv
	case Unary:
		if n.Op == "-" {
			return negIv(intervalOf(n.X, bd, domains))
		}
		return Interval{}
	case Binary:
		l := intervalOf(n.L, bd, domains)
		r := intervalOf(n.R, bd, domains)
		switch n.Op {
		case "+":
			return addIv(l, r)
		case "-":
			return subIv(l, r)
		case "*":
			return mulIv(l, r)
		case "/":
			return divIv(l, r)
		}
		return Interval{}
	default:
		return Interval{}
	}
}

// tightenDomains intersects the domains with simple detail-only conjuncts
// of theta (Col CMP const, Col IN (...), Col BETWEEN a AND b), returning a
// copy. Unrecognized conjuncts are ignored (conservative). A constant
// past 2^53 may round, but monotonically, so a set filtered against it
// keeps every member the conjunct admits, and a range bounded by it is
// left open where Domain.Interval reads it.
func tightenDomains(conjs []Expr, bd Binding, domains map[string]Domain) map[string]Domain {
	out := make(map[string]Domain, len(domains))
	for k, v := range domains {
		out[k] = v
	}
	apply := func(name string, lo, hi *float64) {
		key := strings.ToLower(name)
		d := out[key]
		iv, _ := d.Interval()
		if d.Set != nil {
			// Filter the explicit set.
			var kept []value.V
			for _, v := range d.Set {
				f, err := v.AsFloat()
				if err != nil {
					kept = append(kept, v)
					continue
				}
				if lo != nil && f < *lo || hi != nil && f > *hi {
					continue
				}
				kept = append(kept, v)
			}
			d.Set = kept
			out[key] = d
			return
		}
		if lo != nil && (!iv.HasLo || *lo > iv.Lo) {
			iv.HasLo, iv.Lo = true, *lo
		}
		if hi != nil && (!iv.HasHi || *hi < iv.Hi) {
			iv.HasHi, iv.Hi = true, *hi
		}
		nd := Domain{}
		if iv.HasLo {
			nd.HasMin, nd.Min = true, value.NewFloat(iv.Lo)
		}
		if iv.HasHi {
			nd.HasMax, nd.Max = true, value.NewFloat(iv.Hi)
		}
		out[key] = nd
	}
	for _, cj := range conjs {
		switch n := cj.(type) {
		case Binary:
			col, cok := n.L.(Col)
			cst, vok := n.R.(Const)
			op := n.Op
			if !cok || !vok {
				// try flipped orientation
				col, cok = n.R.(Col)
				cst, vok = n.L.(Const)
				if !cok || !vok {
					continue
				}
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			}
			if side, ok := bd.SideOf(col); !ok || side != SideDetail {
				continue
			}
			f, err := cst.Val.AsFloat()
			if err != nil {
				continue
			}
			switch op {
			case "=":
				apply(col.Name, &f, &f)
			case "<", "<=":
				apply(col.Name, nil, &f)
			case ">", ">=":
				apply(col.Name, &f, nil)
			}
		case Between:
			col, cok := n.X.(Col)
			lo, lok := n.Lo.(Const)
			hi, hok := n.Hi.(Const)
			if !cok || !lok || !hok || n.Neg {
				continue
			}
			if side, ok := bd.SideOf(col); !ok || side != SideDetail {
				continue
			}
			lf, e1 := lo.Val.AsFloat()
			hf, e2 := hi.Val.AsFloat()
			if e1 != nil || e2 != nil {
				continue
			}
			apply(col.Name, &lf, &hf)
		case InList:
			col, cok := n.X.(Col)
			if !cok || n.Neg {
				continue
			}
			if side, ok := bd.SideOf(col); !ok || side != SideDetail {
				continue
			}
			key := strings.ToLower(col.Name)
			d := out[key]
			if d.Set != nil {
				allowed := make(map[string]struct{}, len(n.Vals))
				for _, v := range n.Vals {
					allowed[v.Key()] = struct{}{}
				}
				var kept []value.V
				for _, v := range d.Set {
					if _, ok := allowed[v.Key()]; ok {
						kept = append(kept, v)
					}
				}
				d.Set = kept
				out[key] = d
			} else {
				out[key] = DomainSet(append([]value.V(nil), n.Vals...)...)
			}
		}
	}
	return out
}

// DeriveSiteFilter implements the analysis behind Theorem 4
// (distribution-aware group reduction). Given the conditions θ_1..θ_m of a
// GMDJ round and the per-column domains of one site's partition (φ_i), it
// derives a predicate over the base relation that is implied by
// ¬ψ_i(b) = ∃ r ∈ R_i : (θ_1 ∨ ... ∨ θ_m)(b, r).
//
// The coordinator may ship to the site only base tuples satisfying the
// returned filter: excluded tuples provably have RNG(b, R_i, θ) = ∅ for
// every θ and hence contribute nothing at that site. A nil result means no
// useful restriction could be derived (the site must receive all of B).
func DeriveSiteFilter(thetas []Expr, bd Binding, domains map[string]Domain) Expr {
	var perTheta []Expr
	for _, theta := range thetas {
		f, ok := deriveThetaFilter(theta, bd, domains)
		if !ok {
			// One unrestrictable θ forces shipping all of B: b might be
			// needed for that θ's aggregate at this site.
			return nil
		}
		perTheta = append(perTheta, f)
	}
	if len(perTheta) == 0 {
		return nil
	}
	return Or(perTheta...)
}

// deriveThetaFilter derives a necessary condition on b for
// ∃r∈R_i: θ(b, r), or ok=false when nothing could be derived.
func deriveThetaFilter(theta Expr, bd Binding, domains map[string]Domain) (Expr, bool) {
	conjs := Conjuncts(theta)

	// Detail-only conjuncts restrict which r can participate; use them to
	// tighten the site's domains before deriving base constraints.
	var detailOnly []Expr
	for _, cj := range conjs {
		b, d := SidesUsed(cj, bd)
		if d && !b {
			detailOnly = append(detailOnly, cj)
		}
	}
	tight := tightenDomains(detailOnly, bd, domains)

	var constraints []Expr
	for _, cj := range conjs {
		b, d := SidesUsed(cj, bd)
		switch {
		case b && !d:
			// Base-only conjunct: a necessary condition on b as-is.
			constraints = append(constraints, cj)
		case b && d:
			if c := deriveMixedConstraint(cj, bd, tight); c != nil {
				constraints = append(constraints, c)
			}
		}
	}
	if len(constraints) == 0 {
		return nil, false
	}
	return And(constraints...), true
}

// deriveMixedConstraint handles a single conjunct referencing both sides.
func deriveMixedConstraint(cj Expr, bd Binding, domains map[string]Domain) Expr {
	bin, ok := cj.(Binary)
	if !ok {
		return nil
	}
	switch bin.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return nil
	}
	l, r, op := bin.L, bin.R, bin.Op
	// Normalize to baseExpr OP detailExpr.
	lb, ld := SidesUsed(l, bd)
	rb, rd := SidesUsed(r, bd)
	switch {
	case lb && !ld && rd && !rb:
		// already base OP detail
	case ld && !lb && rb && !rd:
		l, r = r, l
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	default:
		return nil
	}

	// Special case: base Col = detail Col with a finite set domain — emit
	// an IN list, which is tighter than the interval hull.
	if op == "=" {
		if dc, ok := r.(Col); ok {
			if d, ok := domains[strings.ToLower(dc.Name)]; ok && d.Set != nil {
				return d.ToExpr(l)
			}
		}
	}

	iv, ok := IntervalOf(r, bd, domains)
	if !ok {
		return nil
	}
	var cs []Expr
	switch op {
	case "=":
		if iv.HasLo {
			cs = append(cs, Binary{Op: ">=", L: l, R: Const{value.NewFloat(iv.Lo)}})
		}
		if iv.HasHi {
			cs = append(cs, Binary{Op: "<=", L: l, R: Const{value.NewFloat(iv.Hi)}})
		}
	case "<":
		if iv.HasHi {
			cs = append(cs, Binary{Op: "<", L: l, R: Const{value.NewFloat(iv.Hi)}})
		}
	case "<=":
		if iv.HasHi {
			cs = append(cs, Binary{Op: "<=", L: l, R: Const{value.NewFloat(iv.Hi)}})
		}
	case ">":
		if iv.HasLo {
			cs = append(cs, Binary{Op: ">", L: l, R: Const{value.NewFloat(iv.Lo)}})
		}
	case ">=":
		if iv.HasLo {
			cs = append(cs, Binary{Op: ">=", L: l, R: Const{value.NewFloat(iv.Lo)}})
		}
	}
	if len(cs) == 0 {
		return nil
	}
	return And(cs...)
}
