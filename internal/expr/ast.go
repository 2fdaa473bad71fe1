// Package expr implements the condition and scalar-expression language of
// the Skalla engine: an AST with a textual form (used both for display and
// as the wire format between coordinator and sites), a parser, a binder
// that compiles expressions against relation schemas, and the static
// analyses (conjunct splitting, equi-pair extraction, interval reasoning,
// entailment tests) that power the paper's distributed optimizations.
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/value"
)

// Expr is a node in the expression AST. The String form of every
// expression re-parses to an equivalent expression; it is the wire format.
type Expr interface {
	String() string
	// precedence returns the binding strength used to parenthesize
	// correctly when rendering.
	precedence() int
}

// Const is a literal value.
type Const struct{ Val value.V }

// Col is a column reference, optionally qualified with a relation alias
// (e.g. "F.SourceAS" has Qual "F", Name "SourceAS").
type Col struct {
	Qual string
	Name string
}

// Unary is a prefix operator: "-" (negation) or "NOT".
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator. Arithmetic: + - * / %. Comparison:
// = != < <= > >=. Logical: AND OR.
type Binary struct {
	Op   string
	L, R Expr
}

// InList tests membership of X in a literal value list.
type InList struct {
	X    Expr
	Vals []value.V
	Neg  bool
}

// Between tests Lo <= X AND X <= Hi (inclusive both ends, as in SQL).
type Between struct {
	X, Lo, Hi Expr
	Neg       bool
}

// Like tests SQL LIKE pattern matching: % matches any run of characters,
// _ matches exactly one.
type Like struct {
	X       Expr
	Pattern string
	Neg     bool
}

// Operator precedence levels, loosest to tightest.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
	precUnary
	precAtom
)

func (Const) precedence() int   { return precAtom }
func (Col) precedence() int     { return precAtom }
func (InList) precedence() int  { return precCmp }
func (Between) precedence() int { return precCmp }
func (Like) precedence() int    { return precCmp }

func (u Unary) precedence() int {
	if u.Op == "NOT" {
		return precNot
	}
	return precUnary
}

func (b Binary) precedence() int {
	switch b.Op {
	case "OR":
		return precOr
	case "AND":
		return precAnd
	case "=", "!=", "<", "<=", ">", ">=":
		return precCmp
	case "+", "-":
		return precAdd
	default:
		return precMul
	}
}

// String renders a literal; strings are single-quoted with ” escaping.
// A float −0 renders as -0.0: "-0" would read back as the integer 0.
func (c Const) String() string {
	switch {
	case c.Val.K == value.KindString:
		return "'" + strings.ReplaceAll(c.Val.S, "'", "''") + "'"
	case c.Val.K == value.KindFloat && c.Val.Float() == 0 && math.Signbit(c.Val.Float()):
		return "-0.0"
	}
	return c.Val.String()
}

func (c Col) String() string {
	if c.Qual == "" {
		return c.Name
	}
	return c.Qual + "." + c.Name
}

func (u Unary) String() string {
	if u.Op == "NOT" {
		return "NOT " + wrap(u.X, precNot)
	}
	return u.Op + wrap(u.X, precUnary)
}

func (b Binary) String() string {
	op := b.Op
	if op == "AND" || op == "OR" {
		op = " " + op + " "
	} else {
		op = " " + op + " "
	}
	return wrap(b.L, b.precedence()) + op + wrapRight(b.R, b.precedence())
}

func (in InList) String() string {
	var sb strings.Builder
	sb.WriteString(wrap(in.X, precCmp))
	if in.Neg {
		sb.WriteString(" NOT IN (")
	} else {
		sb.WriteString(" IN (")
	}
	for i, v := range in.Vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(Const{v}.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

func (l Like) String() string {
	op := " LIKE "
	if l.Neg {
		op = " NOT LIKE "
	}
	return wrap(l.X, precCmp) + op + Const{value.NewString(l.Pattern)}.String()
}

func (bt Between) String() string {
	op := " BETWEEN "
	if bt.Neg {
		op = " NOT BETWEEN "
	}
	return wrap(bt.X, precCmp) + op + wrap(bt.Lo, precAdd) + " AND " + wrap(bt.Hi, precAdd)
}

// wrap parenthesizes x when its precedence is looser than the context.
func wrap(x Expr, ctx int) string {
	if x.precedence() < ctx {
		return "(" + x.String() + ")"
	}
	return x.String()
}

// wrapRight parenthesizes the right operand also at equal precedence, so
// non-associative renderings like a - (b - c) survive a round trip.
func wrapRight(x Expr, ctx int) string {
	if x.precedence() <= ctx {
		return "(" + x.String() + ")"
	}
	return x.String()
}

// Helper constructors, used heavily by the optimizer and tests.

// C returns a constant expression.
func C(v value.V) Expr { return Const{Val: v} }

// CInt returns an integer constant expression.
func CInt(i int64) Expr { return Const{Val: value.NewInt(i)} }

// Ref returns a column reference with qualifier.
func Ref(qual, name string) Expr { return Col{Qual: qual, Name: name} }

// Eq returns l = r.
func Eq(l, r Expr) Expr { return Binary{Op: "=", L: l, R: r} }

// And conjoins expressions; And() of zero expressions is the constant true,
// of one is that expression.
func And(xs ...Expr) Expr {
	var out Expr
	for _, x := range xs {
		if x == nil {
			continue
		}
		if out == nil {
			out = x
		} else {
			out = Binary{Op: "AND", L: out, R: x}
		}
	}
	if out == nil {
		return Const{Val: value.NewBool(true)}
	}
	return out
}

// Or disjoins expressions; Or() of zero expressions is the constant false.
func Or(xs ...Expr) Expr {
	var out Expr
	for _, x := range xs {
		if x == nil {
			continue
		}
		if out == nil {
			out = x
		} else {
			out = Binary{Op: "OR", L: out, R: x}
		}
	}
	if out == nil {
		return Const{Val: value.NewBool(false)}
	}
	return out
}

// Conjuncts splits an expression at top-level ANDs.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Disjuncts splits an expression at top-level ORs.
func Disjuncts(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == "OR" {
		return append(Disjuncts(b.L), Disjuncts(b.R)...)
	}
	return []Expr{e}
}

// Walk calls fn on e and every sub-expression, pre-order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case Unary:
		Walk(n.X, fn)
	case Binary:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case InList:
		Walk(n.X, fn)
	case Between:
		Walk(n.X, fn)
		Walk(n.Lo, fn)
		Walk(n.Hi, fn)
	case Like:
		Walk(n.X, fn)
	case Case:
		for _, w := range n.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		if n.Else != nil {
			Walk(n.Else, fn)
		}
	case Call:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	}
}

// Cols returns every column reference in e, in visit order, with
// duplicates preserved.
func Cols(e Expr) []Col {
	var out []Col
	Walk(e, func(x Expr) {
		if c, ok := x.(Col); ok {
			out = append(out, c)
		}
	})
	return out
}

// IsTrue reports whether e is the constant TRUE.
func IsTrue(e Expr) bool {
	c, ok := e.(Const)
	return ok && c.Val.K == value.KindBool && c.Val.Int() != 0
}

// Rewrite returns a copy of e with fn applied bottom-up to every node. If
// fn returns nil the node is kept unchanged.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Unary:
		n.X = Rewrite(n.X, fn)
		e = n
	case Binary:
		n.L = Rewrite(n.L, fn)
		n.R = Rewrite(n.R, fn)
		e = n
	case InList:
		n.X = Rewrite(n.X, fn)
		e = n
	case Between:
		n.X = Rewrite(n.X, fn)
		n.Lo = Rewrite(n.Lo, fn)
		n.Hi = Rewrite(n.Hi, fn)
		e = n
	case Like:
		n.X = Rewrite(n.X, fn)
		e = n
	case Case:
		whens := make([]When, len(n.Whens))
		for i, w := range n.Whens {
			whens[i] = When{Cond: Rewrite(w.Cond, fn), Then: Rewrite(w.Then, fn)}
		}
		n.Whens = whens
		if n.Else != nil {
			n.Else = Rewrite(n.Else, fn)
		}
		e = n
	case Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Rewrite(a, fn)
		}
		n.Args = args
		e = n
	}
	if r := fn(e); r != nil {
		return r
	}
	return e
}

// Equal reports structural equality of two expressions via their canonical
// text form.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// errorf wraps package errors uniformly.
func errorf(format string, args ...any) error {
	return fmt.Errorf("expr: "+format, args...)
}
