package value

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// TestValueSize: a value is its kind, one payload word and a string
// header, 32 bytes on a 64-bit platform.
func TestValueSize(t *testing.T) {
	if n := reflect.TypeOf(V{}).Size(); n != 32 {
		t.Errorf("value.V is %d bytes, want 32", n)
	}
}

// TestPayloadReaders: Int and Float read a value's one payload by its
// kind and read zero for every other kind; FromParts builds exactly the
// values whose parts those readers give back.
func TestPayloadReaders(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, v := range []V{Null, NewBool(true), NewBool(false), NewInt(-3), NewFloat(negZero), NewFloat(math.NaN()), NewString("s")} {
		back, ok := FromParts(v.K, v.Int(), v.Float(), v.S)
		if !ok || back != v {
			t.Errorf("FromParts of %s %v parts = %v, %v", v.K, v, back, ok)
		}
		if v.K != KindInt && v.K != KindBool && v.Int() != 0 || v.K != KindFloat && math.Float64bits(v.Float()) != 0 {
			t.Errorf("%s %v reads a payload of another kind: %d, %v", v.K, v, v.Int(), v.Float())
		}
	}
	for _, c := range []struct {
		k Kind
		i int64
		f float64
	}{{KindInt, 0, 1}, {KindInt, 1, negZero}, {KindBool, 2, 0}, {KindBool, -1, 0}, {KindFloat, 1, 0}, {KindNull, 1, 0}, {KindString, 0, 2}, {9, 1, 0}} {
		if v, ok := FromParts(c.k, c.i, c.f, ""); ok {
			t.Errorf("FromParts(%s, %d, %v) = %v, want refused", c.k, c.i, c.f, v)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOL", KindInt: "INT",
		KindFloat: "FLOAT", KindString: "STRING",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.K != KindInt || v.Int() != 42 {
		t.Errorf("NewInt(42) = %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %+v", v)
	}
	if v := NewString("x"); v.K != KindString || v.S != "x" {
		t.Errorf("NewString = %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Error("NewBool(true) not truthy")
	}
	if v := NewBool(false); v.Bool() {
		t.Error("NewBool(false) truthy")
	}
	if !Null.IsNull() || (V{}).IsNull() != true {
		t.Error("zero value is not NULL")
	}
}

func TestAsFloatAsInt(t *testing.T) {
	if f, err := NewInt(3).AsFloat(); err != nil || f != 3 {
		t.Errorf("AsFloat(int 3) = %v, %v", f, err)
	}
	if i, err := NewFloat(3.9).AsInt(); err != nil || i != 3 {
		t.Errorf("AsInt(3.9) = %v, %v", i, err)
	}
	if _, err := NewString("a").AsFloat(); err == nil {
		t.Error("AsFloat(string) should error")
	}
	if _, err := Null.AsInt(); err == nil {
		t.Error("AsInt(null) should error")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		a, b V
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(true), NewInt(1), 0},
		{NewInt(math.MaxInt64), NewInt(math.MaxInt64 - 1), 1},
	}
	for _, tc := range tests {
		got, err := Compare(tc.a, tc.b)
		if err != nil {
			t.Errorf("Compare(%v, %v) error: %v", tc.a, tc.b, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("Compare(string, int) should error")
	}
}

func TestEqualAndLess(t *testing.T) {
	if !Equal(NewInt(1), NewFloat(1)) {
		t.Error("1 != 1.0")
	}
	if Equal(NewString("1"), NewInt(1)) {
		t.Error("string '1' equals int 1")
	}
	if !Less(NewInt(1), NewInt(2)) || Less(NewInt(2), NewInt(1)) {
		t.Error("Less on ints wrong")
	}
}

func TestHashConsistency(t *testing.T) {
	if NewInt(7).Hash() != NewFloat(7).Hash() {
		t.Error("int 7 and float 7.0 hash differently")
	}
	if NewInt(7).Key() != NewFloat(7).Key() {
		t.Error("int 7 and float 7.0 key differently")
	}
	if NewString("7").Key() == NewInt(7).Key() {
		t.Error("string '7' and int 7 share a key")
	}
	if Null.Key() == NewInt(0).Key() {
		t.Error("NULL and 0 share a key")
	}
}

// TestHashMatchesFNVReference pins the allocation-free Hash to the tagged
// FNV-1a byte encoding it replaced: tag byte then, for numerics, the
// little-endian 8-byte payload.
func TestHashMatchesFNVReference(t *testing.T) {
	ref := func(bs ...byte) uint64 {
		h := fnv.New64a()
		h.Write(bs)
		return h.Sum64()
	}
	le := func(tag byte, u uint64) []byte {
		b := []byte{tag, 0, 0, 0, 0, 0, 0, 0, 0}
		for i := 0; i < 8; i++ {
			b[1+i] = byte(u >> (8 * i))
		}
		return b
	}
	cases := []struct {
		v    V
		want uint64
	}{
		{Null, ref(0)},
		{NewBool(true), ref(le(2, math.Float64bits(1))...)},
		{NewInt(42), ref(le(2, math.Float64bits(42))...)},
		{NewInt(math.MaxInt64 - 1), ref(le(1, uint64(math.MaxInt64-1))...)},
		{NewFloat(3.25), ref(le(2, math.Float64bits(3.25))...)},
		{NewString("ab"), ref(3, 'a', 'b')},
	}
	for _, c := range cases {
		if got := c.v.Hash(); got != c.want {
			t.Errorf("Hash(%s) = %#x, want %#x", c.v, got, c.want)
		}
	}
	// Chained updates must equal hashing the concatenated encodings.
	h := UpdateHash(UpdateHash(HashSeed, NewInt(42)), NewString("ab"))
	if want := ref(append(le(2, math.Float64bits(42)), 3, 'a', 'b')...); h != want {
		t.Errorf("UpdateHash chain = %#x, want %#x", h, want)
	}
}

func TestHashNormalizesFloatEquivalents(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if NewFloat(negZero).Hash() != NewFloat(0).Hash() {
		t.Error("-0.0 and 0.0 hash differently")
	}
	if NewFloat(negZero).Hash() != NewInt(0).Hash() {
		t.Error("-0.0 and int 0 hash differently")
	}
	odd := math.Float64frombits(0x7ff8000000000123) // non-canonical NaN payload
	if NewFloat(odd).Hash() != NewFloat(math.NaN()).Hash() {
		t.Error("NaN payloads hash differently")
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	f := func(i int64) bool {
		a, b := NewInt(i), NewInt(i)
		return a.Hash() == b.Hash() && a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  func() (V, error)
		want V
	}{
		{"int add", func() (V, error) { return Add(NewInt(2), NewInt(3)) }, NewInt(5)},
		{"mixed add", func() (V, error) { return Add(NewInt(2), NewFloat(0.5)) }, NewFloat(2.5)},
		{"sub", func() (V, error) { return Sub(NewInt(2), NewInt(5)) }, NewInt(-3)},
		{"mul", func() (V, error) { return Mul(NewInt(4), NewInt(3)) }, NewInt(12)},
		{"div is float", func() (V, error) { return Div(NewInt(3), NewInt(2)) }, NewFloat(1.5)},
		{"div by zero", func() (V, error) { return Div(NewInt(3), NewInt(0)) }, Null},
		{"mod", func() (V, error) { return Mod(NewInt(7), NewInt(3)) }, NewInt(1)},
		{"mod by zero", func() (V, error) { return Mod(NewInt(7), NewInt(0)) }, Null},
		{"null propagates", func() (V, error) { return Add(Null, NewInt(1)) }, Null},
		{"neg int", func() (V, error) { return Neg(NewInt(5)) }, NewInt(-5)},
		{"neg float", func() (V, error) { return Neg(NewFloat(1.5)) }, NewFloat(-1.5)},
	}
	for _, tc := range tests {
		got, err := tc.got()
		if err != nil {
			t.Errorf("%s: error %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic should error")
	}
	if _, err := Neg(NewString("a")); err == nil {
		t.Error("string negation should error")
	}
}

func TestArithmeticProperties(t *testing.T) {
	commutative := func(a, b int32) bool {
		x, err1 := Add(NewInt(int64(a)), NewInt(int64(b)))
		y, err2 := Add(NewInt(int64(b)), NewInt(int64(a)))
		return err1 == nil && err2 == nil && x == y
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Error("addition not commutative:", err)
	}
	compareAntisym := func(a, b int32) bool {
		c1, _ := Compare(NewInt(int64(a)), NewInt(int64(b)))
		c2, _ := Compare(NewInt(int64(b)), NewInt(int64(a)))
		return c1 == -c2
	}
	if err := quick.Check(compareAntisym, nil); err != nil {
		t.Error("compare not antisymmetric:", err)
	}
}

func TestStringRendering(t *testing.T) {
	tests := []struct {
		v    V
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in   string
		want V
	}{
		{"NULL", Null},
		{"true", NewBool(true)},
		{"false", NewBool(false)},
		{"42", NewInt(42)},
		{"-7", NewInt(-7)},
		{"2.5", NewFloat(2.5)},
		{"hello", NewString("hello")},
	}
	for _, tc := range tests {
		if got := Parse(tc.in); got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := NewInt(i)
		return Parse(v.String()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKeyPast2To63: Key gives the float 2^63 a key of its own, apart from
// the int MinInt64 and the float −2^63, which Compare orders below it; the
// float −2^63 equals MinInt64 and shares its key.
func TestKeyPast2To63(t *testing.T) {
	top, bottom, minInt := NewFloat(0x1p63), NewFloat(-0x1p63), NewInt(math.MinInt64)
	for _, v := range []V{bottom, minInt} {
		if c, _ := Compare(top, v); c <= 0 {
			t.Fatalf("Compare(2^63, %v) = %d, want 1", v, c)
		}
		if top.Key() == v.Key() {
			t.Errorf("2^63 and %#v share the key %q", v, v.Key())
		}
	}
	if bottom.Key() != minInt.Key() {
		t.Errorf("−2^63 has the key %q, MinInt64 %q", bottom.Key(), minInt.Key())
	}
	for _, c := range []struct {
		f  float64
		i  int64
		ok bool
	}{{0x1p63, 0, false}, {-0x1p63, math.MinInt64, true}, {0x1p63 - 1024, 1<<63 - 1024, true}, {0.5, 0, false}, {math.Inf(-1), 0, false}, {math.NaN(), 0, false}} {
		if i, ok := IntegralFloat(c.f); i != c.i || ok != c.ok {
			t.Errorf("IntegralFloat(%g) = %d, %v; want %d, %v", c.f, i, ok, c.i, c.ok)
		}
	}
}
