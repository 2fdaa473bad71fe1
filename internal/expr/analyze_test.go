package expr

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

func intSet(vals ...int64) Domain {
	vs := make([]value.V, len(vals))
	for i, v := range vals {
		vs[i] = value.NewInt(v)
	}
	return DomainSet(vs...)
}

func TestDomainInterval(t *testing.T) {
	d := intSet(3, 1, 7)
	iv, ok := d.Interval()
	if !ok || iv.Lo != 1 || iv.Hi != 7 {
		t.Errorf("interval of {3,1,7} = %+v, %v", iv, ok)
	}
	d = DomainRange(value.NewInt(1), value.NewInt(25))
	iv, ok = d.Interval()
	if !ok || iv.Lo != 1 || iv.Hi != 25 {
		t.Errorf("interval of [1,25] = %+v", iv)
	}
	if _, ok := DomainSet().Interval(); ok {
		t.Error("empty set has an interval")
	}
	if _, ok := DomainSet(value.NewString("x")).Interval(); ok {
		t.Error("string set has a numeric interval")
	}
}

func TestDomainToExpr(t *testing.T) {
	if s := intSet(1, 2).ToExpr(Col{Qual: "B", Name: "x"}).String(); s != "B.x IN (1, 2)" {
		t.Errorf("set expr = %s", s)
	}
	if s := DomainRange(value.NewInt(1), value.NewInt(25)).ToExpr(Col{Name: "x"}).String(); s != "x BETWEEN 1 AND 25" {
		t.Errorf("range expr = %s", s)
	}
	d := Domain{HasMin: true, Min: value.NewInt(5)}
	if s := d.ToExpr(Col{Name: "x"}).String(); s != "x >= 5" {
		t.Errorf("min-only expr = %s", s)
	}
}

func TestIntervalArithmetic(t *testing.T) {
	bd := flowBinding()
	domains := map[string]Domain{
		"sourceas": DomainRange(value.NewInt(1), value.NewInt(25)),
		"numbytes": DomainRange(value.NewInt(0), value.NewInt(100)),
	}
	tests := []struct {
		e      string
		lo, hi float64
	}{
		{"F.SourceAS", 1, 25},
		{"F.SourceAS * 2", 2, 50},
		{"F.SourceAS + F.NumBytes", 1, 125},
		{"F.SourceAS - F.NumBytes", -99, 25},
		{"-F.SourceAS", -25, -1},
		{"F.SourceAS * -2", -50, -2},
		{"F.NumBytes / F.SourceAS", 0, 100},
		{"3 + 4", 7, 7},
	}
	for _, tc := range tests {
		iv, ok := IntervalOf(MustParse(tc.e), bd, domains)
		if !ok || !iv.HasLo || !iv.HasHi {
			t.Errorf("IntervalOf(%q) unknown", tc.e)
			continue
		}
		if iv.Lo != tc.lo || iv.Hi != tc.hi {
			t.Errorf("IntervalOf(%q) = [%v,%v], want [%v,%v]", tc.e, iv.Lo, iv.Hi, tc.lo, tc.hi)
		}
	}
	// Division by an interval containing zero is unknown.
	if _, ok := IntervalOf(MustParse("1 / F.NumBytes"), bd, domains); ok {
		t.Error("division by zero-containing interval should be unknown")
	}
	// Base columns have no detail interval.
	if _, ok := IntervalOf(MustParse("B.sum1"), bd, domains); ok {
		t.Error("base column should have unknown interval")
	}
}

// TestDeriveSiteFilterEquality reproduces Example 2 of the paper: site S1
// holds SourceAS in [1,25]; θ contains F.SourceAS = B.SourceAS; the
// derived ¬ψ filter must be B.SourceAS ∈ [1,25].
func TestDeriveSiteFilterEquality(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS")
	domains := map[string]Domain{
		"sourceas": DomainRange(value.NewInt(1), value.NewInt(25)),
	}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	s := f.String()
	if !strings.Contains(s, "B.SourceAS") || !strings.Contains(s, "1") || !strings.Contains(s, "25") {
		t.Errorf("filter = %s", s)
	}
	// The filter must be evaluable over the base schema alone.
	bound, err := Bind(f, Binding{Base: bd.Base, BaseAliases: bd.BaseAliases})
	if err != nil {
		t.Fatalf("derived filter does not bind to base: %v", err)
	}
	in, err := bound.EvalBool(bRow(10, 0, 0, 0), nil)
	if err != nil || !in {
		t.Errorf("SourceAS=10 should pass: %v %v", in, err)
	}
	out, err := bound.EvalBool(bRow(30, 0, 0, 0), nil)
	if err != nil || out {
		t.Errorf("SourceAS=30 should be filtered: %v %v", out, err)
	}
}

// TestDeriveSiteFilterSet checks the finite-set (IN list) variant used by
// NationKey-style partitioning.
func TestDeriveSiteFilterSet(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS")
	domains := map[string]Domain{"sourceas": intSet(3, 4, 5)}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	if s := f.String(); s != "B.SourceAS IN (3, 4, 5)" {
		t.Errorf("filter = %s", s)
	}
}

// TestDeriveSiteFilterArithmetic reproduces the paper's revised Example 2:
// θ is B.DestAS + B.SourceAS < F.SourceAS * 2 with SourceAS ∈ [1,25]; the
// derived condition is B.DestAS + B.SourceAS < 50.
func TestDeriveSiteFilterArithmetic(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("B.DestAS + B.SourceAS < F.SourceAS * 2")
	domains := map[string]Domain{
		"sourceas": DomainRange(value.NewInt(1), value.NewInt(25)),
	}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	if s := f.String(); s != "B.DestAS + B.SourceAS < 50" {
		t.Errorf("filter = %s, want B.DestAS + B.SourceAS < 50", s)
	}
}

// TestDeriveSiteFilterPast2To53: an INT domain bound past 2^53 rounds
// when converted to float64, so no filter may be derived from it: one
// rounded to 2^53 would drop base row 2^53+2 for the first θ and 2^53 for
// the second. Below 2^53 the bound still filters.
func TestDeriveSiteFilterPast2To53(t *testing.T) {
	bd := flowBinding()
	const p53 = int64(1) << 53
	for _, theta := range []string{"B.SourceAS = F.SourceAS + 1", "B.SourceAS < F.SourceAS"} {
		past := map[string]Domain{"sourceas": DomainRange(value.NewInt(p53+1), value.NewInt(p53+1))}
		if f := DeriveSiteFilter([]Expr{MustParse(theta)}, bd, past); f != nil {
			t.Errorf("%s over [2^53+1, 2^53+1]: filter %s, want none", theta, f)
		}
		below := map[string]Domain{"sourceas": DomainRange(value.NewInt(p53-9), value.NewInt(p53-9))}
		if f := DeriveSiteFilter([]Expr{MustParse(theta)}, bd, below); f == nil {
			t.Errorf("%s over [2^53-9, 2^53-9]: no filter", theta)
		}
	}
}

// TestDeriveSiteFilterFlipped checks orientation normalization
// (detail CMP base).
func TestDeriveSiteFilterFlipped(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS * 2 > B.DestAS + B.SourceAS")
	domains := map[string]Domain{
		"sourceas": DomainRange(value.NewInt(1), value.NewInt(25)),
	}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	if s := f.String(); s != "B.DestAS + B.SourceAS < 50" {
		t.Errorf("filter = %s", s)
	}
}

// TestDeriveSiteFilterMultiTheta checks the OR across conditions: a tuple
// may be needed by either θ.
func TestDeriveSiteFilterMultiTheta(t *testing.T) {
	bd := flowBinding()
	t1 := MustParse("F.SourceAS = B.SourceAS")
	t2 := MustParse("F.DestAS = B.DestAS")
	domains := map[string]Domain{
		"sourceas": intSet(1, 2),
		"destas":   intSet(8, 9),
	}
	f := DeriveSiteFilter([]Expr{t1, t2}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	s := f.String()
	if !strings.Contains(s, "OR") || !strings.Contains(s, "B.SourceAS IN (1, 2)") ||
		!strings.Contains(s, "B.DestAS IN (8, 9)") {
		t.Errorf("filter = %s", s)
	}
}

// TestDeriveSiteFilterUnrestrictable: if any θ gives nothing, the whole
// derivation must give nil (all of B is needed).
func TestDeriveSiteFilterUnrestrictable(t *testing.T) {
	bd := flowBinding()
	t1 := MustParse("F.SourceAS = B.SourceAS")
	t2 := MustParse("F.NumBytes > 0") // no base reference: unrestrictable
	domains := map[string]Domain{"sourceas": intSet(1)}
	if f := DeriveSiteFilter([]Expr{t1, t2}, bd, domains); f != nil {
		t.Errorf("expected nil filter, got %s", f)
	}
	// No domain knowledge at all for equality: also nil.
	if f := DeriveSiteFilter([]Expr{t1}, bd, nil); f != nil {
		t.Errorf("expected nil filter without domains, got %s", f)
	}
}

// TestDeriveSiteFilterDetailTightening: detail-only conjuncts narrow the
// domain before base constraints are derived.
func TestDeriveSiteFilterDetailTightening(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND F.SourceAS >= 10")
	domains := map[string]Domain{
		"sourceas": DomainRange(value.NewInt(1), value.NewInt(25)),
	}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	s := f.String()
	if !strings.Contains(s, "10") || !strings.Contains(s, "25") {
		t.Errorf("tightened filter = %s, want bounds [10,25]", s)
	}
	// Set domains are filtered element-wise.
	domains = map[string]Domain{"sourceas": intSet(5, 10, 15)}
	f = DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil || strings.Contains(f.String(), "5,") {
		t.Errorf("set-tightened filter = %v", f)
	}
	if !strings.Contains(f.String(), "10, 15") {
		t.Errorf("set-tightened filter = %s, want IN (10, 15)", f)
	}
}

// TestDeriveSiteFilterBaseOnlyConjunct: base-only conjuncts are necessary
// conditions and belong in the filter.
func TestDeriveSiteFilterBaseOnlyConjunct(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND B.DestAS > 100")
	domains := map[string]Domain{"sourceas": intSet(1)}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter derived")
	}
	if !strings.Contains(f.String(), "B.DestAS > 100") {
		t.Errorf("filter = %s", f)
	}
}

func TestEquiDetailAttrs(t *testing.T) {
	bd := flowBinding()
	m := EquiDetailAttrs(MustParse("F.SourceAS = B.SourceAS AND F.NumBytes > 5"), bd)
	if m["sourceas"] != "sourceas" || len(m) != 1 {
		t.Errorf("EquiDetailAttrs = %v", m)
	}
}

func TestTightenDomainsInList(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND F.SourceAS IN (2, 4)")
	domains := map[string]Domain{"sourceas": intSet(1, 2, 3)}
	f := DeriveSiteFilter([]Expr{theta}, bd, domains)
	if f == nil {
		t.Fatal("no filter")
	}
	if s := f.String(); s != "B.SourceAS IN (2)" {
		t.Errorf("filter = %s, want B.SourceAS IN (2)", s)
	}
}

func TestDomainEmpty(t *testing.T) {
	if !DomainSet().Empty() {
		t.Error("empty set not Empty")
	}
	if intSet(1).Empty() || (Domain{}).Empty() {
		t.Error("non-empty domains reported Empty")
	}
}

var _ = relation.New // keep import when tests shuffle
