package expr

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

func flowBinding() Binding {
	base := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "sum1", Kind: value.KindFloat},
		relation.Column{Name: "cnt1", Kind: value.KindInt},
	)
	detail := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindFloat},
	)
	return Binding{
		Base: base, Detail: detail,
		BaseAliases:   []string{"B"},
		DetailAliases: []string{"F", "R"},
	}
}

func bRow(sas, das int64, sum float64, cnt int64) relation.Row {
	return relation.Row{value.NewInt(sas), value.NewInt(das), value.NewFloat(sum), value.NewInt(cnt)}
}

func rRow(sas, das int64, nb float64) relation.Row {
	return relation.Row{value.NewInt(sas), value.NewInt(das), value.NewFloat(nb)}
}

func TestBindAndEval(t *testing.T) {
	bd := flowBinding()
	tests := []struct {
		cond string
		b    relation.Row
		r    relation.Row
		want bool
	}{
		{"F.SourceAS = B.SourceAS", bRow(1, 2, 0, 0), rRow(1, 9, 0), true},
		{"F.SourceAS = B.SourceAS", bRow(1, 2, 0, 0), rRow(3, 9, 0), false},
		{"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS", bRow(1, 2, 0, 0), rRow(1, 2, 0), true},
		{"F.NumBytes >= B.sum1 / B.cnt1", bRow(0, 0, 100, 4), rRow(0, 0, 30), true},
		{"F.NumBytes >= B.sum1 / B.cnt1", bRow(0, 0, 100, 4), rRow(0, 0, 20), false},
		{"B.DestAS + B.SourceAS < F.SourceAS * 2", bRow(10, 20, 0, 0), rRow(16, 0, 0), true},
		{"B.DestAS + B.SourceAS < F.SourceAS * 2", bRow(10, 20, 0, 0), rRow(15, 0, 0), false},
		{"F.SourceAS IN (1, 2, 3)", bRow(0, 0, 0, 0), rRow(2, 0, 0), true},
		{"F.SourceAS NOT IN (1, 2, 3)", bRow(0, 0, 0, 0), rRow(2, 0, 0), false},
		{"F.SourceAS BETWEEN 5 AND 7", bRow(0, 0, 0, 0), rRow(6, 0, 0), true},
		{"F.SourceAS BETWEEN 5 AND 7", bRow(0, 0, 0, 0), rRow(8, 0, 0), false},
		{"NOT F.SourceAS = 1", bRow(0, 0, 0, 0), rRow(1, 0, 0), false},
		{"F.SourceAS % 2 = 0", bRow(0, 0, 0, 0), rRow(4, 0, 0), true},
		{"NumBytes > 5", bRow(0, 0, 0, 0), rRow(0, 0, 6), true},                 // unqualified, detail only
		{"sum1 > 5", bRow(0, 0, 6, 0), rRow(0, 0, 0), true},                     // unqualified, base only
		{"-F.NumBytes < 0", bRow(0, 0, 0, 0), rRow(0, 0, 3), true},              // unary minus
		{"F.SourceAS = 1 OR B.cnt1 = 9", bRow(0, 0, 0, 9), rRow(5, 0, 0), true}, // OR
	}
	for _, tc := range tests {
		e := MustParse(tc.cond)
		bound, err := Bind(e, bd)
		if err != nil {
			t.Errorf("Bind(%q): %v", tc.cond, err)
			continue
		}
		got, err := bound.EvalBool(tc.b, tc.r)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.cond, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Eval(%q) = %v, want %v", tc.cond, got, tc.want)
		}
	}
}

func TestBindErrors(t *testing.T) {
	bd := flowBinding()
	bad := []string{
		"X.SourceAS = 1", // unknown qualifier
		"F.Nope = 1",     // unknown column
		"SourceAS = 1",   // ambiguous unqualified (in both schemas)
		"Missing = 1",    // unknown everywhere
	}
	for _, cond := range bad {
		if _, err := Bind(MustParse(cond), bd); err == nil {
			t.Errorf("Bind(%q) should fail", cond)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	bd := flowBinding()
	b := relation.Row{value.Null, value.NewInt(2), value.Null, value.NewInt(0)}
	r := rRow(1, 2, 5)
	for _, cond := range []string{
		"B.SourceAS = 1", "B.SourceAS != 1", "B.SourceAS < 1",
		"B.SourceAS BETWEEN 0 AND 9", "B.SourceAS IN (1, 2)",
	} {
		bound, err := Bind(MustParse(cond), bd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bound.EvalBool(b, r)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("%q with NULL should be false", cond)
		}
	}
}

func TestArithmeticEval(t *testing.T) {
	bd := flowBinding()
	bound, err := Bind(MustParse("B.sum1 / B.cnt1"), bd)
	if err != nil {
		t.Fatal(err)
	}
	v, err := bound.Eval(bRow(0, 0, 100, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 25 {
		t.Errorf("100/4 = %v", v)
	}
	// Division by zero yields NULL, predicates on it are false.
	v, err = bound.Eval(bRow(0, 0, 100, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsNull() {
		t.Errorf("100/0 = %v, want NULL", v)
	}
}

func TestEvalTypeErrorSurfaces(t *testing.T) {
	bd := Binding{
		Detail: relation.MustSchema(
			relation.Column{Name: "s", Kind: value.KindString},
			relation.Column{Name: "n", Kind: value.KindInt},
		),
		DetailAliases: []string{"T"},
	}
	bound, err := Bind(MustParse("T.s < T.n"), bd)
	if err != nil {
		t.Fatal(err)
	}
	row := relation.Row{value.NewString("a"), value.NewInt(1)}
	if _, err := bound.EvalBool(nil, row); err == nil {
		t.Error("string<int comparison should surface an error")
	}
}

func TestSideOf(t *testing.T) {
	bd := flowBinding()
	if s, ok := bd.SideOf(Col{Qual: "F", Name: "x"}); !ok || s != SideDetail {
		t.Error("F should be detail")
	}
	if s, ok := bd.SideOf(Col{Qual: "b", Name: "x"}); !ok || s != SideBase {
		t.Error("b should be base (case-insensitive)")
	}
	if _, ok := bd.SideOf(Col{Qual: "", Name: "SourceAS"}); ok {
		t.Error("ambiguous unqualified column resolved")
	}
	if s, ok := bd.SideOf(Col{Qual: "", Name: "NumBytes"}); !ok || s != SideDetail {
		t.Error("NumBytes should resolve to detail")
	}
}

func TestRefsOnlyAndSidesUsed(t *testing.T) {
	bd := flowBinding()
	e := MustParse("F.NumBytes > 5")
	if b, d := SidesUsed(e, bd); b || !d {
		t.Error("detail-only misclassified")
	}
	e = MustParse("B.sum1 > 5 AND F.NumBytes > 5")
	b, d := SidesUsed(e, bd)
	if !b || !d {
		t.Error("mixed expression misclassified")
	}
	// Unresolvable column counts as both sides (conservative).
	e = MustParse("Z.q = 1")
	b, d = SidesUsed(e, bd)
	if !b || !d {
		t.Error("unknown qualifier should count as both sides")
	}
}

func TestEquiPairsAndResidual(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND B.DestAS = F.DestAS AND F.NumBytes >= B.sum1 / B.cnt1")
	pairs := EquiPairs(theta, bd)
	if len(pairs) != 2 {
		t.Fatalf("EquiPairs = %v", pairs)
	}
	if pairs[0].Base.Name != "SourceAS" || pairs[0].Detail.Name != "SourceAS" {
		t.Errorf("pair 0 = %v", pairs[0])
	}
	if pairs[1].Base.Name != "DestAS" {
		t.Errorf("pair 1 = %v", pairs[1])
	}
	res := Residual(theta, bd, pairs)
	if !strings.Contains(res.String(), "NumBytes") || strings.Contains(res.String(), "DestAS") {
		t.Errorf("Residual = %s", res)
	}
	// All-equi theta leaves TRUE residual.
	theta2 := MustParse("F.SourceAS = B.SourceAS")
	res2 := Residual(theta2, bd, EquiPairs(theta2, bd))
	if !IsTrue(res2) {
		t.Errorf("residual of pure equi = %s", res2)
	}
}

func TestEntailsKeyEquality(t *testing.T) {
	bd := flowBinding()
	theta := MustParse("F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS AND F.NumBytes > 0")
	if !EntailsKeyEquality(theta, bd, []string{"SourceAS", "DestAS"}) {
		t.Error("key equality not detected")
	}
	if EntailsKeyEquality(MustParse("F.SourceAS = B.SourceAS"), bd, []string{"SourceAS", "DestAS"}) {
		t.Error("missing DestAS equality should fail")
	}
	// R-side inequality does not count.
	if EntailsKeyEquality(MustParse("F.SourceAS > B.SourceAS"), bd, []string{"SourceAS"}) {
		t.Error("inequality treated as equality")
	}
}
