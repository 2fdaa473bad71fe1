package expr

import (
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// Side identifies which of the two relations a bound column reads from. In
// GMDJ terms, SideBase is the base-values relation B and SideDetail is the
// detail relation R.
type Side int

// The two sides of a GMDJ condition.
const (
	SideBase Side = iota
	SideDetail
)

// Binding describes how column references resolve: which schema each side
// has and which qualifiers (aliases) name each side. Either side may be
// nil for single-relation expressions.
type Binding struct {
	Base          *relation.Schema
	Detail        *relation.Schema
	BaseAliases   []string
	DetailAliases []string
}

// SingleRelation returns a binding for expressions over one relation,
// treated as the detail side, reachable via the given aliases (and via
// unqualified names).
func SingleRelation(s *relation.Schema, aliases ...string) Binding {
	return Binding{Detail: s, DetailAliases: aliases}
}

// SideOf resolves the side of a column reference from its qualifier alone.
// Unqualified references try both schemas. It is also the workhorse of the
// static analyses, which need side classification without evaluation.
func (bd Binding) SideOf(c Col) (Side, bool) {
	if c.Qual != "" {
		for _, a := range bd.BaseAliases {
			if strings.EqualFold(a, c.Qual) {
				return SideBase, true
			}
		}
		for _, a := range bd.DetailAliases {
			if strings.EqualFold(a, c.Qual) {
				return SideDetail, true
			}
		}
		return 0, false
	}
	inB, inD := false, false
	if bd.Base != nil {
		_, inB = bd.Base.Lookup(c.Name)
	}
	if bd.Detail != nil {
		_, inD = bd.Detail.Lookup(c.Name)
	}
	switch {
	case inB && !inD:
		return SideBase, true
	case inD && !inB:
		return SideDetail, true
	default:
		return 0, false
	}
}

// resolve returns the side and column position of a reference.
func (bd Binding) resolve(c Col) (Side, int, error) {
	side, ok := bd.SideOf(c)
	if !ok {
		if c.Qual != "" {
			return 0, 0, errorf("unknown or ambiguous qualifier %q in %s (base aliases %v, detail aliases %v)",
				c.Qual, c, bd.BaseAliases, bd.DetailAliases)
		}
		return 0, 0, errorf("unknown or ambiguous column %q", c.Name)
	}
	var s *relation.Schema
	if side == SideBase {
		s = bd.Base
	} else {
		s = bd.Detail
	}
	if s == nil {
		return 0, 0, errorf("column %s refers to an unbound side", c)
	}
	i, err := s.MustLookup(c.Name)
	if err != nil {
		return 0, 0, err
	}
	return side, i, nil
}

// evalFn evaluates a compiled node against a (base row, detail row) pair.
type evalFn func(b, r relation.Row) (value.V, error)

// Bound is a compiled expression ready for repeated evaluation.
type Bound struct {
	src Expr
	fn  evalFn
}

// Bind compiles e against the binding, resolving every column reference to
// a (side, position) pair. Binding fails fast on unknown columns so query
// errors surface at plan time, not per row.
func Bind(e Expr, bd Binding) (*Bound, error) {
	fn, err := compile(e, bd)
	if err != nil {
		return nil, err
	}
	return &Bound{src: e, fn: fn}, nil
}

// Expr returns the source expression this was compiled from.
func (b *Bound) Expr() Expr { return b.src }

// Eval evaluates the expression. Pass nil for an unbound side.
func (b *Bound) Eval(base, detail relation.Row) (value.V, error) {
	return b.fn(base, detail)
}

// EvalBool evaluates the expression as a predicate. NULL results are
// false, as in SQL WHERE semantics.
func (b *Bound) EvalBool(base, detail relation.Row) (bool, error) {
	v, err := b.fn(base, detail)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

func compile(e Expr, bd Binding) (evalFn, error) {
	switch n := e.(type) {
	case Const:
		v := n.Val
		return func(_, _ relation.Row) (value.V, error) { return v, nil }, nil

	case Col:
		side, idx, err := bd.resolve(n)
		if err != nil {
			return nil, err
		}
		if side == SideBase {
			return func(b, _ relation.Row) (value.V, error) {
				if idx >= len(b) {
					return value.Null, errorf("row too short for column %s", n)
				}
				return b[idx], nil
			}, nil
		}
		return func(_, r relation.Row) (value.V, error) {
			if idx >= len(r) {
				return value.Null, errorf("row too short for column %s", n)
			}
			return r[idx], nil
		}, nil

	case Unary:
		x, err := compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return func(b, r relation.Row) (value.V, error) {
				v, err := x(b, r)
				if err != nil {
					return value.Null, err
				}
				return value.NewBool(!v.Bool()), nil
			}, nil
		}
		return func(b, r relation.Row) (value.V, error) {
			v, err := x(b, r)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(v)
		}, nil

	case Binary:
		l, err := compile(n.L, bd)
		if err != nil {
			return nil, err
		}
		r, err := compile(n.R, bd)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "AND":
			return func(b, rr relation.Row) (value.V, error) {
				lv, err := l(b, rr)
				if err != nil {
					return value.Null, err
				}
				if !lv.Bool() {
					return value.NewBool(false), nil
				}
				rv, err := r(b, rr)
				if err != nil {
					return value.Null, err
				}
				return value.NewBool(rv.Bool()), nil
			}, nil
		case "OR":
			return func(b, rr relation.Row) (value.V, error) {
				lv, err := l(b, rr)
				if err != nil {
					return value.Null, err
				}
				if lv.Bool() {
					return value.NewBool(true), nil
				}
				rv, err := r(b, rr)
				if err != nil {
					return value.Null, err
				}
				return value.NewBool(rv.Bool()), nil
			}, nil
		case "=", "!=", "<", "<=", ">", ">=":
			op := n.Op
			return func(b, rr relation.Row) (value.V, error) {
				lv, err := l(b, rr)
				if err != nil {
					return value.Null, err
				}
				rv, err := r(b, rr)
				if err != nil {
					return value.Null, err
				}
				if lv.IsNull() || rv.IsNull() {
					return value.NewBool(false), nil
				}
				c, err := value.Compare(lv, rv)
				if err != nil {
					return value.Null, err
				}
				var ok bool
				switch op {
				case "=":
					ok = c == 0
				case "!=":
					ok = c != 0
				case "<":
					ok = c < 0
				case "<=":
					ok = c <= 0
				case ">":
					ok = c > 0
				case ">=":
					ok = c >= 0
				}
				return value.NewBool(ok), nil
			}, nil
		case "+":
			return arithFn(l, r, value.Add), nil
		case "-":
			return arithFn(l, r, value.Sub), nil
		case "*":
			return arithFn(l, r, value.Mul), nil
		case "/":
			return arithFn(l, r, value.Div), nil
		case "%":
			return arithFn(l, r, value.Mod), nil
		default:
			return nil, errorf("unknown operator %q", n.Op)
		}

	case InList:
		x, err := compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		set := make(map[string]struct{}, len(n.Vals))
		for _, v := range n.Vals {
			set[v.Key()] = struct{}{}
		}
		neg := n.Neg
		return func(b, r relation.Row) (value.V, error) {
			v, err := x(b, r)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() {
				return value.NewBool(false), nil
			}
			_, in := set[v.Key()]
			return value.NewBool(in != neg), nil
		}, nil

	case Like:
		x, err := compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		neg := n.Neg
		pattern := n.Pattern
		return func(b, r relation.Row) (value.V, error) {
			v, err := x(b, r)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() {
				return value.NewBool(false), nil
			}
			if v.K != value.KindString {
				return value.Null, errorf("LIKE on %s value", v.K)
			}
			return value.NewBool(likeMatch(v.S, pattern) != neg), nil
		}, nil

	case Case:
		return compileCase(n, bd)

	case Call:
		return compileCall(n, bd)

	case Between:
		x, err := compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		lo, err := compile(n.Lo, bd)
		if err != nil {
			return nil, err
		}
		hi, err := compile(n.Hi, bd)
		if err != nil {
			return nil, err
		}
		neg := n.Neg
		return func(b, r relation.Row) (value.V, error) {
			xv, err := x(b, r)
			if err != nil {
				return value.Null, err
			}
			lov, err := lo(b, r)
			if err != nil {
				return value.Null, err
			}
			hiv, err := hi(b, r)
			if err != nil {
				return value.Null, err
			}
			if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return value.NewBool(false), nil
			}
			c1, err := value.Compare(lov, xv)
			if err != nil {
				return value.Null, err
			}
			c2, err := value.Compare(xv, hiv)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool((c1 <= 0 && c2 <= 0) != neg), nil
		}, nil
	}
	return nil, errorf("cannot compile %T", e)
}

func arithFn(l, r evalFn, op func(a, b value.V) (value.V, error)) evalFn {
	return func(b, rr relation.Row) (value.V, error) {
		lv, err := l(b, rr)
		if err != nil {
			return value.Null, err
		}
		rv, err := r(b, rr)
		if err != nil {
			return value.Null, err
		}
		return op(lv, rv)
	}
}
