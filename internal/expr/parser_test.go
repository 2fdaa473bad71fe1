package expr

import (
	"strings"
	"testing"

	"repro/internal/value"
)

func TestParseBasics(t *testing.T) {
	tests := []struct {
		in   string
		want string // canonical form; "" means same as in
	}{
		{"1 + 2", ""},
		{"1 + 2 * 3", ""},
		{"(1 + 2) * 3", ""},
		{"a - (b - c)", ""},
		{"a - b - c", ""},
		{"F.SourceAS = B.SourceAS", ""},
		{"F.SourceAS = B.SourceAS && F.DestAS = B.DestAS",
			"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS"},
		{"a == 1 || b <> 2", "a = 1 OR b != 2"},
		{"!(a = 1)", "NOT a = 1"},
		{"NOT a = 1 AND b = 2", ""},
		{"x IN (1, 2, 3)", ""},
		{"x NOT IN (1, 2)", ""},
		{"x BETWEEN 1 AND 10", ""},
		{"x NOT BETWEEN 1 AND 10", ""},
		{"x BETWEEN a + 1 AND b * 2", ""},
		{"name = 'O''Brien'", ""},
		{"v >= -3.5", ""},
		{"price * (1 - discount) > 100", ""},
		{"B.DestAS + B.SourceAS < F.SourceAS * 2", ""},
		{"TRUE", "true"},
		{"FALSE OR TRUE", "false OR true"},
		{"x = NULL", ""},
		{"a = 1 AND (b = 2 OR c = 3)", ""},
		{"x % 2 = 0", ""},
		{"-x + 1 = 0", ""},
		{"x IN ('a', 'b')", ""},
		{"x IN (-1, -2)", ""},
	}
	for _, tc := range tests {
		e, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if got := e.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", tc.in, got, want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	// String() output must re-parse to the identical string (wire format
	// stability).
	inputs := []string{
		"F1.SAS = B1.SAS AND F1.DAS = B1.DAS AND F1.NB >= B1.sum1 / B1.cnt1",
		"a + b * c - d / e % f",
		"NOT (a = 1 OR b = 2) AND c IN (1, 2, 3)",
		"x BETWEEN 1 AND 10 OR y NOT BETWEEN -5 AND 5",
		"(a + b) * (c - d) <= 10.25",
		"s = 'it''s'",
		"1 % -0.0",
	}
	for _, in := range inputs {
		e1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		s1 := e1.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", s1, err)
		}
		if s2 := e2.String(); s2 != s1 {
			t.Errorf("round trip: %q -> %q -> %q", in, s1, s2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1 + 2",
		"a = ",
		"x IN (a, b)", // non-literal IN list
		"x IN ()",
		"'unterminated",
		"a . ",
		"a NOT b",
		"1 ? 2",
		"x BETWEEN 1",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseLiteralKinds(t *testing.T) {
	e := MustParse("3")
	if c, ok := e.(Const); !ok || c.Val.K != value.KindInt {
		t.Errorf("3 parsed as %#v", e)
	}
	e = MustParse("3.0")
	if c, ok := e.(Const); !ok || c.Val.K != value.KindFloat {
		t.Errorf("3.0 parsed as %#v", e)
	}
	e = MustParse("1e3")
	if c, ok := e.(Const); !ok || c.Val.K != value.KindFloat || c.Val.Float() != 1000 {
		t.Errorf("1e3 parsed as %#v", e)
	}
	e = MustParse("-42")
	if c, ok := e.(Const); !ok || c.Val.K != value.KindInt || c.Val.Int() != -42 {
		t.Errorf("-42 parsed as %#v", e)
	}
}

func TestConjunctsDisjuncts(t *testing.T) {
	e := MustParse("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Errorf("Conjuncts = %d, want 3", len(cj))
	}
	dj := Disjuncts(cj[2])
	if len(dj) != 2 {
		t.Errorf("Disjuncts = %d, want 2", len(dj))
	}
}

func TestAndOrHelpers(t *testing.T) {
	if !IsTrue(And()) {
		t.Error("And() should be TRUE")
	}
	if s := Or().String(); s != "false" {
		t.Errorf("Or() = %s", s)
	}
	e := And(MustParse("a = 1"), nil, MustParse("b = 2"))
	if len(Conjuncts(e)) != 2 {
		t.Error("And skipping nil broken")
	}
}

func TestColsAndWalk(t *testing.T) {
	e := MustParse("F.a = B.b AND F.c + 1 > 2")
	cols := Cols(e)
	if len(cols) != 3 {
		t.Fatalf("Cols = %v", cols)
	}
	var names []string
	for _, c := range cols {
		names = append(names, c.String())
	}
	joined := strings.Join(names, ",")
	if joined != "F.a,B.b,F.c" {
		t.Errorf("cols = %s", joined)
	}
}

func TestRewrite(t *testing.T) {
	e := MustParse("a = 1 AND b = 2")
	got := Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(Col); ok && c.Name == "a" {
			return Col{Qual: "T", Name: "a"}
		}
		return nil
	})
	if got.String() != "T.a = 1 AND b = 2" {
		t.Errorf("Rewrite = %s", got)
	}
	// Original untouched.
	if e.String() != "a = 1 AND b = 2" {
		t.Errorf("Rewrite mutated original: %s", e)
	}
}
