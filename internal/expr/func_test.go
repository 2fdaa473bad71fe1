package expr

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

func TestParseCase(t *testing.T) {
	tests := []struct {
		in   string
		want string // canonical; "" = same
	}{
		{"CASE WHEN a > 1 THEN 10 ELSE 0 END", ""},
		{"CASE WHEN a > 1 THEN 10 END", ""},
		{"CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END", ""},
		{"1 + (CASE WHEN a > 0 THEN a ELSE 0 END)", "1 + CASE WHEN a > 0 THEN a ELSE 0 END"},
		{"case when a>1 then 2 end", "CASE WHEN a > 1 THEN 2 END"},
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
			t.Errorf("Parse(%q) = %q, want %q", tc.in, got, want)
		}
		// Wire-format stability.
		again, err := Parse(e.String())
		if err != nil || again.String() != e.String() {
			t.Errorf("round trip of %q failed: %v", tc.in, err)
		}
	}
}

func TestParseCaseErrors(t *testing.T) {
	bad := []string{
		"CASE END",
		"CASE WHEN a THEN END",
		"CASE WHEN a THEN 1",   // missing END
		"CASE WHEN THEN 1 END", // missing condition
		"CASE ELSE 1 END",      // no arms
		"abs()",                // no args
		"abs(1, 2)",            // wrong arity
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			e, _ := Parse(in)
			// abs arity errors surface at bind time, not parse time.
			if _, berr := Bind(e, Binding{}); berr == nil {
				t.Errorf("Parse(%q) should fail somewhere", in)
			}
		}
	}
}

func TestCaseEval(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "port", Kind: value.KindInt},
		relation.Column{Name: "bytes", Kind: value.KindInt},
	)
	bd := SingleRelation(schema, "F")
	e := MustParse("CASE WHEN F.port IN (80, 443) THEN F.bytes ELSE 0 END")
	bound, err := Bind(e, bd)
	if err != nil {
		t.Fatal(err)
	}
	row := relation.Row{value.NewInt(443), value.NewInt(1000)}
	v, err := bound.Eval(nil, row)
	if err != nil || v.Int() != 1000 {
		t.Errorf("web row = %v, %v", v, err)
	}
	row = relation.Row{value.NewInt(22), value.NewInt(1000)}
	v, err = bound.Eval(nil, row)
	if err != nil || v.Int() != 0 {
		t.Errorf("ssh row = %v, %v", v, err)
	}
	// No ELSE → NULL.
	e2 := MustParse("CASE WHEN F.port = 80 THEN 1 END")
	bound2, err := Bind(e2, bd)
	if err != nil {
		t.Fatal(err)
	}
	v, err = bound2.Eval(nil, row)
	if err != nil || !v.IsNull() {
		t.Errorf("no-else case = %v, %v", v, err)
	}
}

func TestScalarFunctions(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: value.KindInt},
		relation.Column{Name: "b", Kind: value.KindInt},
	)
	bd := SingleRelation(schema, "T")
	row := relation.Row{value.NewInt(-7), value.Null}

	tests := []struct {
		in   string
		want value.V
	}{
		{"abs(T.a)", value.NewInt(7)},
		{"abs(3.5)", value.NewFloat(3.5)},
		{"abs(-3.5)", value.NewFloat(3.5)},
		{"least(T.a, 0, 5)", value.NewInt(-7)},
		{"greatest(T.a, 0, 5)", value.NewInt(5)},
		{"least(T.b, 3)", value.NewInt(3)}, // NULLs skipped
		{"coalesce(T.b, T.a, 1)", value.NewInt(-7)},
		{"coalesce(T.b, T.b)", value.Null},
	}
	for _, tc := range tests {
		bound, err := Bind(MustParse(tc.in), bd)
		if err != nil {
			t.Errorf("Bind(%q): %v", tc.in, err)
			continue
		}
		got, err := bound.Eval(nil, row)
		if err != nil {
			t.Errorf("Eval(%q): %v", tc.in, err)
			continue
		}
		if !value.Equal(got, tc.want) && !(got.IsNull() && tc.want.IsNull()) {
			t.Errorf("Eval(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := Bind(MustParse("abs('x')"), bd); err != nil {
		t.Fatal(err) // binds fine; errors at eval
	}
	bound, _ := Bind(MustParse("abs(T.a + 'x')"), bd)
	if _, err := bound.Eval(nil, row); err == nil {
		t.Error("abs of string arithmetic should error")
	}
}

func TestCallRoundTrip(t *testing.T) {
	for _, in := range []string{
		"abs(x - y)",
		"coalesce(a, b, 0)",
		"greatest(least(a, b), 0)",
	} {
		e := MustParse(in)
		if got := e.String(); got != in {
			t.Errorf("%q rendered as %q", in, got)
		}
	}
}

func TestCaseInWalkAndRewrite(t *testing.T) {
	e := MustParse("CASE WHEN a = 1 THEN coalesce(b, 0) ELSE abs(c) END")
	cols := Cols(e)
	if len(cols) != 3 {
		t.Errorf("Cols = %v", cols)
	}
	got := Rewrite(e, func(x Expr) Expr {
		if c, ok := x.(Col); ok {
			return Col{Qual: "F", Name: c.Name}
		}
		return nil
	})
	want := "CASE WHEN F.a = 1 THEN coalesce(F.b, 0) ELSE abs(F.c) END"
	if got.String() != want {
		t.Errorf("Rewrite = %s, want %s", got, want)
	}
	// Original untouched.
	if e.String() != "CASE WHEN a = 1 THEN coalesce(b, 0) ELSE abs(c) END" {
		t.Errorf("Rewrite mutated original: %s", e)
	}
}

func TestUnknownFunctionStaysColumnError(t *testing.T) {
	// frob(x) is not a scalar function, so "frob" lexes as an identifier
	// and "(" makes the parse fail cleanly.
	if _, err := Parse("frob(x) > 1"); err == nil {
		t.Error("unknown function call should not parse")
	}
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		s, p string
		want bool
	}{
		{"Customer#000000001", "Customer#%", true},
		{"Customer#000000001", "%001", true},
		{"Customer#000000001", "%0000%", true},
		{"Customer#000000001", "customer#%", false}, // case sensitive
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "m%iss%ppi", true},
		{"mississippi", "m%iss%ppj", false},
	}
	for _, tc := range tests {
		if got := likeMatch(tc.s, tc.p); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

func TestLikeExpr(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "name", Kind: value.KindString},
		relation.Column{Name: "n", Kind: value.KindInt},
	)
	bd := SingleRelation(schema, "T")
	tests := []struct {
		cond string
		name string
		want bool
	}{
		{"T.name LIKE 'Cust%'", "Customer#1", true},
		{"T.name LIKE 'Cust%'", "Supplier#1", false},
		{"T.name NOT LIKE 'Cust%'", "Supplier#1", true},
		{"T.name LIKE '%#_'", "Customer#1", true},
		{"T.name LIKE '%#__'", "Customer#1", false},
	}
	for _, tc := range tests {
		bound, err := Bind(MustParse(tc.cond), bd)
		if err != nil {
			t.Fatalf("Bind(%q): %v", tc.cond, err)
		}
		row := relation.Row{value.NewString(tc.name), value.NewInt(1)}
		got, err := bound.EvalBool(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%q on %q = %v, want %v", tc.cond, tc.name, got, tc.want)
		}
	}
	// Round trip through the wire format.
	e := MustParse("T.name LIKE 'it''s_%'")
	again := MustParse(e.String())
	if again.String() != e.String() {
		t.Errorf("LIKE round trip: %q vs %q", e, again)
	}
	// LIKE on NULL is false; on a number it errors.
	bound, _ := Bind(MustParse("T.name LIKE 'x'"), bd)
	if got, err := bound.EvalBool(nil, relation.Row{value.Null, value.NewInt(1)}); err != nil || got {
		t.Errorf("LIKE NULL = %v, %v", got, err)
	}
	bound, _ = Bind(MustParse("T.n LIKE 'x'"), bd)
	if _, err := bound.EvalBool(nil, relation.Row{value.NewString("a"), value.NewInt(1)}); err == nil {
		t.Error("LIKE on int should error")
	}
	// Parse errors.
	if _, err := Parse("x LIKE 5"); err == nil {
		t.Error("LIKE with non-string pattern parsed")
	}
}
