// Package agg implements the aggregate functions of the Skalla engine and
// their decomposition into distributive primitives.
//
// Theorem 1 of the paper rests on every aggregate f splitting into a
// sub-aggregate f' computed at the sites and a super-aggregate f”
// computed at the coordinator. Here each aggregate decomposes into a small
// vector of distributive primitives (count, sum, sum of squares, min, max,
// HLL sketch); the sites ship primitive states as ordinary row values, the
// coordinator merges states pointwise and finalizes. This uniformly covers
// the paper's COUNT and AVG and extends to algebraic aggregates (VAR,
// STDDEV) and a mergeable approximate COUNT DISTINCT that preserves the
// Theorem 2 traffic bound.
package agg

//lint:deterministic aggregate primitive states must be identical across runs and sites

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// Func identifies an aggregate function.
type Func int

// The supported aggregate functions.
const (
	Count Func = iota // COUNT(*) or COUNT(arg)
	Sum
	Avg
	Min
	Max
	Var    // population variance
	Stddev // population standard deviation
	CountD // approximate COUNT(DISTINCT arg) via HyperLogLog
	// CountDX is exact COUNT(DISTINCT arg): sites ship the distinct value
	// set itself. Exactness costs the Theorem 2 bound — the shipped state
	// grows with the number of distinct values — so it suits small
	// domains; use CountD for unbounded ones. States larger than
	// maxExactDistinct values are rejected.
	CountDX
)

var funcNames = map[Func]string{
	Count: "count", Sum: "sum", Avg: "avg", Min: "min", Max: "max",
	Var: "var", Stddev: "stddev", CountD: "countd", CountDX: "countdx",
}

var funcByName = map[string]Func{
	"count": Count, "cnt": Count, "sum": Sum, "avg": Avg, "mean": Avg,
	"min": Min, "max": Max, "var": Var, "variance": Var,
	"stddev": Stddev, "std": Stddev, "countd": CountD,
	"approx_count_distinct": CountD,
	"countdx":               CountDX,
	"exact_count_distinct":  CountDX,
}

// String returns the canonical function name.
func (f Func) String() string {
	if n, ok := funcNames[f]; ok {
		return n
	}
	return fmt.Sprintf("Func(%d)", int(f))
}

// Spec is one aggregate to compute: a function over an expression of the
// detail relation, named As in the output. A nil Arg means COUNT(*).
type Spec struct {
	Func Func
	Arg  expr.Expr // nil for COUNT(*)
	As   string
}

// Star reports whether the spec is COUNT(*).
func (s Spec) Star() bool { return s.Func == Count && s.Arg == nil }

// String renders the spec in its wire form, e.g. "sum(F.NumBytes) AS sum1".
func (s Spec) String() string {
	arg := "*"
	if s.Arg != nil {
		arg = s.Arg.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", s.Func, arg, s.As)
}

// ParseSpec parses the wire form produced by Spec.String: an aggregate
// call, AS, and the output name. The paper's arrow notation
// "cnt(*) -> cnt1" is accepted as well.
func ParseSpec(in string) (Spec, error) {
	p := expr.NewParser(strings.TrimSpace(in))
	s, err := ReadSpec(p)
	if err == nil {
		err = p.Done()
	}
	if err != nil {
		return Spec{}, fmt.Errorf("spec %q: %w", in, err)
	}
	return s, nil
}

// ReadSpec reads one spec, "func(arg) AS name" or "func(arg) -> name",
// from p.
func ReadSpec(p *expr.Parser) (Spec, error) {
	s, err := ParseCall(p)
	if err != nil {
		return Spec{}, err
	}
	if !p.Word("AS") && !p.Op("->") {
		return Spec{}, p.Errorf("agg: expected AS or -> after %s", s.Func)
	}
	var ok bool
	if s.As, ok = p.Ident(); !ok {
		return Spec{}, p.Errorf("agg: expected an output name")
	}
	return s, nil
}

// ParseCall reads an aggregate call, func(*) or func(arg), from p: a Spec
// without its output name. count() is count(*).
func ParseCall(p *expr.Parser) (Spec, error) {
	name, ok := p.Ident()
	if !ok {
		return Spec{}, p.Errorf("agg: expected an aggregate function")
	}
	f, ok := funcByName[strings.ToLower(name)]
	if !ok {
		return Spec{}, fmt.Errorf("agg: unknown aggregate function %q", name)
	}
	if !p.Op("(") {
		return Spec{}, p.Errorf("agg: expected ( after %s", name)
	}
	if star := p.Op("*"); star || p.Op(")") {
		if star && !p.Op(")") {
			return Spec{}, p.Errorf("agg: expected ) after *")
		}
		if f != Count {
			return Spec{}, fmt.Errorf("agg: only count may take *")
		}
		return Spec{Func: Count}, nil
	}
	arg, err := p.Expr()
	if err != nil {
		return Spec{}, err
	}
	if !p.Op(")") {
		return Spec{}, p.Errorf("agg: expected ) after the argument of %s", name)
	}
	return Spec{Func: f, Arg: arg}, nil
}

// MustParseSpec is ParseSpec but panics on error; for tests and literals.
func MustParseSpec(in string) Spec {
	s, err := ParseSpec(in)
	if err != nil {
		panic(err)
	}
	return s
}

// Prim identifies a distributive primitive aggregate.
type Prim uint8

// The distributive primitives aggregates decompose into.
const (
	PCount Prim = iota // count of (non-NULL, unless star) inputs
	PSum               // sum of inputs
	PSumSq             // sum of squared inputs
	PMin
	PMax
	PHLL // HyperLogLog register set, carried as a string value
	PSet // exact distinct-value set, carried as an encoded string value
)

// Prims returns the primitive vector the spec decomposes into. The order
// is fixed; SubColumns and Finalize use the same order.
func (s Spec) Prims() []Prim {
	switch s.Func {
	case Count:
		return []Prim{PCount}
	case Sum:
		return []Prim{PSum}
	case Avg:
		return []Prim{PSum, PCount}
	case Min:
		return []Prim{PMin}
	case Max:
		return []Prim{PMax}
	case Var, Stddev:
		return []Prim{PCount, PSum, PSumSq}
	case CountD:
		return []Prim{PHLL}
	case CountDX:
		return []Prim{PSet}
	default:
		return nil
	}
}

// SubColName names the i'th primitive column of the spec in shipped
// sub-result rows.
func (s Spec) SubColName(i int) string { return fmt.Sprintf("%s__p%d", s.As, i) }

// SubColumns returns the schema columns holding the spec's primitive
// states in shipped sub-results.
func (s Spec) SubColumns() []relation.Column {
	prims := s.Prims()
	cols := make([]relation.Column, len(prims))
	for i, p := range prims {
		k := value.KindFloat
		switch p {
		case PCount:
			k = value.KindInt
		case PHLL, PSet:
			k = value.KindString
		}
		cols[i] = relation.Column{Name: s.SubColName(i), Kind: k}
	}
	return cols
}

// OutColumn returns the schema column of the finalized aggregate.
func (s Spec) OutColumn() relation.Column {
	k := value.KindFloat
	if s.Func == Count || s.Func == CountD || s.Func == CountDX {
		k = value.KindInt
	}
	return relation.Column{Name: s.As, Kind: k}
}

// Finalize computes the aggregate's final value from its merged primitive
// states, in Prims() order. Empty groups yield 0 for counts and NULL for
// everything else, matching SQL.
func (s Spec) Finalize(prims []value.V) (value.V, error) {
	want := len(s.Prims())
	if len(prims) != want {
		return value.Null, fmt.Errorf("agg: %s: got %d primitive states, want %d", s, len(prims), want)
	}
	switch s.Func {
	case Count:
		if prims[0].IsNull() {
			return value.NewInt(0), nil
		}
		return prims[0], nil
	case Sum, Min, Max:
		return prims[0], nil
	case Avg:
		sum, cnt := prims[0], prims[1]
		if sum.IsNull() || cnt.IsNull() {
			return value.Null, nil
		}
		return value.Div(sum, cnt)
	case Var, Stddev:
		cnt, sum, sumsq := prims[0], prims[1], prims[2]
		if cnt.IsNull() || sum.IsNull() || sumsq.IsNull() {
			return value.Null, nil
		}
		n, err := cnt.AsFloat()
		if err != nil || n == 0 {
			return value.Null, err
		}
		sf, err := sum.AsFloat()
		if err != nil {
			return value.Null, err
		}
		qf, err := sumsq.AsFloat()
		if err != nil {
			return value.Null, err
		}
		v := qf/n - (sf/n)*(sf/n)
		if v < 0 {
			v = 0 // guard rounding
		}
		if s.Func == Stddev {
			v = math.Sqrt(v)
		}
		return value.NewFloat(v), nil
	case CountD:
		if prims[0].IsNull() {
			return value.NewInt(0), nil
		}
		h, err := decodeHLL(prims[0])
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(h.Estimate())), nil
	case CountDX:
		if prims[0].IsNull() {
			return value.NewInt(0), nil
		}
		set, err := decodeSet(prims[0])
		if err != nil {
			return value.Null, err
		}
		return value.NewInt(int64(len(set))), nil
	default:
		return value.Null, fmt.Errorf("agg: unknown function %v", s.Func)
	}
}
