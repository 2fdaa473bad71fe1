package expr

import (
	"strings"

	"repro/internal/value"
)

// This file adds CASE expressions and scalar function calls to the
// expression language. Conditional expressions matter for OLAP because
// they turn filters into aggregate arguments — e.g.
// sum(CASE WHEN DestPort IN (80, 443) THEN NumBytes ELSE 0 END) — which
// composes with the distributed sub-aggregate machinery for free.

// When is one WHEN/THEN arm of a CASE expression.
type When struct {
	Cond Expr
	Then Expr
}

// Case is a searched CASE expression: the first arm whose condition is
// true yields the result; otherwise Else (NULL when absent).
type Case struct {
	Whens []When
	Else  Expr // may be nil
}

func (Case) precedence() int { return precAtom }

func (c Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// Call is a scalar function call. Supported functions: abs(x),
// least(x, ...), greatest(x, ...), coalesce(x, ...).
type Call struct {
	Name string
	Args []Expr
}

func (Call) precedence() int { return precAtom }

func (c Call) String() string {
	var b strings.Builder
	b.WriteString(strings.ToLower(c.Name))
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// scalarArity maps supported scalar functions to their minimum arity;
// -1 means variadic with at least one argument.
var scalarFuncs = map[string]int{
	"abs":      1,
	"least":    -1,
	"greatest": -1,
	"coalesce": -1,
}

// IsScalarFunc reports whether name is a supported scalar function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[strings.ToLower(name)]
	return ok
}

// compileCase and compileCall extend the binder (bind.go dispatches here).

func compileCase(n Case, bd Binding) (evalFn, error) {
	type arm struct {
		cond evalFn
		then evalFn
	}
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		c, err := compile(w.Cond, bd)
		if err != nil {
			return nil, err
		}
		t, err := compile(w.Then, bd)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{cond: c, then: t}
	}
	var els evalFn
	if n.Else != nil {
		var err error
		els, err = compile(n.Else, bd)
		if err != nil {
			return nil, err
		}
	}
	return func(b, r []value.V) (value.V, error) {
		for _, a := range arms {
			c, err := a.cond(b, r)
			if err != nil {
				return value.Null, err
			}
			if c.Bool() {
				return a.then(b, r)
			}
		}
		if els != nil {
			return els(b, r)
		}
		return value.Null, nil
	}, nil
}

func compileCall(n Call, bd Binding) (evalFn, error) {
	name := strings.ToLower(n.Name)
	min, ok := scalarFuncs[name]
	if !ok {
		return nil, errorf("unknown function %q", n.Name)
	}
	if min >= 0 && len(n.Args) != min || min < 0 && len(n.Args) == 0 {
		return nil, errorf("%s: wrong argument count %d", name, len(n.Args))
	}
	args := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		fn, err := compile(a, bd)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	switch name {
	case "abs":
		return func(b, r []value.V) (value.V, error) {
			v, err := args[0](b, r)
			if err != nil || v.IsNull() {
				return v, err
			}
			switch v.K {
			case value.KindInt:
				if v.Int() < 0 {
					return value.NewInt(-v.Int()), nil
				}
				return v, nil
			case value.KindFloat:
				if v.Float() < 0 {
					return value.NewFloat(-v.Float()), nil
				}
				return v, nil
			default:
				return value.Null, errorf("abs of %s", v.K)
			}
		}, nil
	case "least", "greatest":
		greatest := name == "greatest"
		return func(b, r []value.V) (value.V, error) {
			best := value.Null
			for _, fn := range args {
				v, err := fn(b, r)
				if err != nil {
					return value.Null, err
				}
				if v.IsNull() {
					continue // SQL least/greatest skip NULLs
				}
				if best.IsNull() {
					best = v
					continue
				}
				c, err := value.Compare(v, best)
				if err != nil {
					return value.Null, err
				}
				if greatest && c > 0 || !greatest && c < 0 {
					best = v
				}
			}
			return best, nil
		}, nil
	case "coalesce":
		return func(b, r []value.V) (value.V, error) {
			for _, fn := range args {
				v, err := fn(b, r)
				if err != nil {
					return value.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return value.Null, nil
		}, nil
	}
	return nil, errorf("unhandled function %q", name)
}

// LikeMatch reports whether s matches the SQL LIKE pattern, using the same
// semantics as the bound evaluator. Exported for the vectorized kernels,
// which pre-evaluate patterns per dictionary entry.
func LikeMatch(s, pattern string) bool { return likeMatch(s, pattern) }

// likeMatch implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one byte. Matching is iterative with greedy '%'
// backtracking, the classic wildcard algorithm.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
