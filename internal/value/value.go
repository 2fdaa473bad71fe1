// Package value implements the typed scalar values used throughout the
// Skalla engine: relation columns, expression results, and aggregate
// accumulator states are all built from value.V.
//
// The type system is deliberately small — NULL, 64-bit integers, 64-bit
// floats, booleans, and strings — which matches the attribute types needed
// by the paper's TPC-R and IP-flow schemas. Values are small structs built
// by the constructors; on the wire they travel inside a relation's frame
// (relation.AppendFrame), column by column.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether the kind is a numeric type.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// V is a single scalar value. The zero value of V is NULL.
//
// A value has one payload word, read by Int for KindInt and KindBool (0 or
// 1) and by Float for KindFloat; S holds a KindString's bytes. Only the
// constructors set the payload, so no value carries one under a kind that
// does not read it, and a V is 32 bytes.
type V struct {
	K Kind
	n uint64
	S string
}

// Null is the NULL value.
var Null = V{}

// NewInt returns an integer value.
func NewInt(i int64) V { return V{K: KindInt, n: uint64(i)} }

// NewFloat returns a float value. Its payload holds f's bits exactly, −0
// and NaN payloads included.
func NewFloat(f float64) V { return V{K: KindFloat, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) V { return V{K: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) V {
	if b {
		return V{K: KindBool, n: 1}
	}
	return V{K: KindBool}
}

// FromParts returns the value of kind k whose Int reads i, whose Float
// reads f and whose S is s, and false when no value has those parts: a
// non-zero payload (−0 included) under a kind that does not read it, or a
// BOOL other than 0 or 1. Decoders refuse what no encoder of a value wrote.
func FromParts(k Kind, i int64, f float64, s string) (V, bool) {
	v, noF := V{K: k, n: uint64(i), S: s}, math.Float64bits(f) == 0
	switch k {
	case KindBool:
		return v, noF && v.n <= 1
	case KindInt:
		return v, noF
	case KindFloat:
		return V{K: k, n: math.Float64bits(f), S: s}, i == 0
	}
	return V{K: k, S: s}, i == 0 && noF
}

// Int returns the payload of an INT or BOOL value, and 0 for other kinds.
func (v V) Int() int64 {
	if v.K == KindInt || v.K == KindBool {
		return int64(v.n)
	}
	return 0
}

// Float returns the payload of a FLOAT value, and 0 for other kinds.
func (v V) Float() float64 {
	if v.K == KindFloat {
		return math.Float64frombits(v.n)
	}
	return 0
}

// IsNull reports whether v is NULL.
func (v V) IsNull() bool { return v.K == KindNull }

// Bool reports the truthiness of v: true booleans, non-zero numbers.
// NULL and strings are never truthy.
func (v V) Bool() bool { return v.Int() != 0 || v.Float() != 0 }

// AsFloat converts a numeric or boolean value to float64.
// It returns an error for NULL and string values.
func (v V) AsFloat() (float64, error) {
	switch v.K {
	case KindInt, KindBool:
		return float64(int64(v.n)), nil
	case KindFloat:
		return math.Float64frombits(v.n), nil
	default:
		return 0, fmt.Errorf("value: cannot convert %s to float", v.K)
	}
}

// AsInt converts a numeric or boolean value to int64, truncating floats.
// It returns an error for NULL and string values.
func (v V) AsInt() (int64, error) {
	switch v.K {
	case KindInt, KindBool:
		return int64(v.n), nil
	case KindFloat:
		return int64(math.Float64frombits(v.n)), nil
	default:
		return 0, fmt.Errorf("value: cannot convert %s to int", v.K)
	}
}

// String renders the value for display and for the text wire format.
func (v V) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return v.S
	default:
		return fmt.Sprintf("V(%d)", uint8(v.K))
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// (including bool) compare by magnitude across kinds; strings compare
// lexicographically. Comparing a string with a number is an error.
func Compare(a, b V) (int, error) {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0, nil
		case a.K == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.K == KindString || b.K == KindString {
		if a.K != KindString || b.K != KindString {
			return 0, fmt.Errorf("value: cannot compare %s with %s", a.K, b.K)
		}
		return strings.Compare(a.S, b.S), nil
	}
	// Numeric (or bool) comparison. Compare as ints when both sides are
	// integral to avoid float rounding on large int64 values.
	if a.K != KindFloat && b.K != KindFloat {
		return cmp.Compare(int64(a.n), int64(b.n)), nil
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	default:
		return 0, nil
	}
}

// Equal reports whether two values compare equal. NULL equals only NULL.
// Mismatched string/number comparisons are unequal rather than an error.
func Equal(a, b V) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Less reports whether a sorts strictly before b, using the same order as
// Compare; incomparable pairs order by kind so sorting is total.
func Less(a, b V) bool {
	c, err := Compare(a, b)
	if err != nil {
		return a.K < b.K
	}
	return c < 0
}

// HashSeed is the initial state for an UpdateHash chain (the 64-bit FNV-1a
// offset basis). For any value v, v.Hash() == UpdateHash(HashSeed, v), so
// multi-column keys can be hashed by folding each column into the running
// state without allocating per-row key strings.
const HashSeed uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashUint64(h uint64, u uint64) uint64 {
	h = hashByte(h, byte(u))
	h = hashByte(h, byte(u>>8))
	h = hashByte(h, byte(u>>16))
	h = hashByte(h, byte(u>>24))
	h = hashByte(h, byte(u>>32))
	h = hashByte(h, byte(u>>40))
	h = hashByte(h, byte(u>>48))
	h = hashByte(h, byte(u>>56))
	return h
}

// UpdateHash folds v into a running FNV-1a state h and returns the new
// state. The byte sequence folded per value matches Hash exactly, so
// single-column chains agree with Hash and equal values (per Equal/Key)
// produce equal states.
func UpdateHash(h uint64, v V) uint64 {
	switch v.K {
	case KindNull:
		return hashByte(h, 0)
	case KindBool, KindInt:
		// Integral values hash via their float form when exactly
		// representable so 1 and 1.0 land in the same bucket.
		f := float64(int64(v.n))
		if int64(f) == int64(v.n) {
			return hashUint64(hashByte(h, 2), math.Float64bits(f))
		}
		return hashUint64(hashByte(h, 1), v.n)
	case KindFloat:
		// Normalize -0.0 and NaN payloads so every value a Key/Equal
		// equivalence class contains hashes identically (hash grouping
		// relies on Equal values never landing in different buckets).
		f := math.Float64frombits(v.n)
		if f == 0 {
			f = 0
		} else if math.IsNaN(f) {
			f = math.NaN()
		}
		return hashUint64(hashByte(h, 2), math.Float64bits(f))
	case KindString:
		h = hashByte(h, 3)
		for i := 0; i < len(v.S); i++ {
			h = hashByte(h, v.S[i])
		}
		return h
	}
	return h
}

// Hash returns a 64-bit hash of the value, suitable for hash grouping.
// Numerically equal int and float values hash identically. It allocates
// nothing.
func (v V) Hash() uint64 { return UpdateHash(HashSeed, v) }

// IntegralFloat returns f as an int64 when f is integral and in int64's
// range, [−2^63, 2^63): the floats Key renders as the integer they equal.
// 2^63 itself is out of range, although float64(math.MaxInt64) rounds to
// it.
func IntegralFloat(f float64) (int64, bool) {
	if f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
		return int64(f), true
	}
	return 0, false
}

// Key returns a compact string usable as a Go map key, distinguishing
// kind classes but identifying numerically equal ints and floats.
func (v V) Key() string {
	switch v.K {
	case KindNull:
		return "\x00"
	case KindBool, KindInt:
		return "\x01" + strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		if i, ok := IntegralFloat(math.Float64frombits(v.n)); ok {
			return "\x01" + strconv.FormatInt(i, 10)
		}
		return "\x02" + strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return "\x03" + v.S
	default:
		return "\x04"
	}
}

// Arithmetic implements SQL-style numeric arithmetic: NULL propagates, int
// op int yields int (except division, which yields float), and any float
// operand promotes the result to float.

// Add returns a + b.
func Add(a, b V) (V, error) { return arith(a, b, "+") }

// Sub returns a - b.
func Sub(a, b V) (V, error) { return arith(a, b, "-") }

// Mul returns a * b.
func Mul(a, b V) (V, error) { return arith(a, b, "*") }

// Div returns a / b as a float; division by zero yields NULL.
func Div(a, b V) (V, error) { return arith(a, b, "/") }

// Mod returns a % b for integer operands; modulo by zero yields NULL.
func Mod(a, b V) (V, error) { return arith(a, b, "%") }

// Neg returns -a.
func Neg(a V) (V, error) {
	switch a.K {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-int64(a.n)), nil
	case KindFloat:
		return NewFloat(-math.Float64frombits(a.n)), nil
	default:
		return Null, fmt.Errorf("value: cannot negate %s", a.K)
	}
}

func arith(a, b V, op string) (V, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.K.Numeric() && a.K != KindBool || !b.K.Numeric() && b.K != KindBool {
		return Null, fmt.Errorf("value: %s %s %s is not numeric", a.K, op, b.K)
	}
	if op == "%" {
		ai, err := a.AsInt()
		if err != nil {
			return Null, err
		}
		bi, err := b.AsInt()
		if err != nil {
			return Null, err
		}
		if bi == 0 {
			return Null, nil
		}
		return NewInt(ai % bi), nil
	}
	if op == "/" {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if bf == 0 {
			return Null, nil
		}
		return NewFloat(af / bf), nil
	}
	if a.K == KindFloat || b.K == KindFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch op {
		case "+":
			return NewFloat(af + bf), nil
		case "-":
			return NewFloat(af - bf), nil
		case "*":
			return NewFloat(af * bf), nil
		}
	}
	ai, bi := int64(a.n), int64(b.n)
	switch op {
	case "+":
		return NewInt(ai + bi), nil
	case "-":
		return NewInt(ai - bi), nil
	case "*":
		return NewInt(ai * bi), nil
	}
	return Null, fmt.Errorf("value: unknown operator %q", op)
}

// Parse interprets a literal string as a value: "NULL", booleans, integer
// and float literals; anything else is a string value.
func Parse(s string) V {
	switch s {
	case "NULL", "null":
		return Null
	case "true":
		return NewBool(true)
	case "false":
		return NewBool(false)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return NewFloat(f)
	}
	return NewString(s)
}
