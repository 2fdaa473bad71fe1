package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/value"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Column{"SourceAS", value.KindInt},
		Column{"DestAS", value.KindInt},
		Column{"NumBytes", value.KindFloat},
		Column{"Router", value.KindString},
	)
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{"a", value.KindInt}, Column{"A", value.KindInt}); err == nil {
		t.Error("duplicate (case-insensitive) columns accepted")
	}
	if _, err := NewSchema(Column{"", value.KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if i, ok := s.Lookup("destas"); !ok || i != 1 {
		t.Errorf("Lookup(destas) = %d, %v", i, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	if _, err := s.MustLookup("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("MustLookup error should name the column: %v", err)
	}
	// Case folds as strings.ToLower does, ASCII in place, a non-ASCII name
	// through ToLower.
	long := strings.Repeat("Quantity", 5)
	u := MustSchema(Column{"Straße", value.KindInt}, Column{long, value.KindInt}, Column{"DestAS", value.KindInt})
	for name, want := range map[string]int{"STRASSE": -1, "STRAßE": 0, "straße": 0, long: 1, strings.ToUpper(long): 1, "destAs": 2, "DestA": -1} {
		if i, ok := u.Lookup(name); ok != (want >= 0) || ok && i != want {
			t.Errorf("Lookup(%s) = %d, %v; want %d", name, i, ok, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { u.Lookup("DESTAS") }); n != 0 {
		t.Errorf("Lookup of a short ASCII name allocates %.0f objects", n)
	}
}

// TestSchemaLookupFoldRule: Lookup and NewSchema's duplicate check match
// two names exactly when their strings.ToLower forms are equal, ASCII or
// not, whole or behind a common prefix, in a narrow schema or a wide one. That is not strings.EqualFold,
// which matches 'ſ' and 's'.
func TestSchemaLookupFoldRule(t *testing.T) {
	names := []string{
		"a", "A", "ab", "AB", "aB", "b", "Router", "ROUTER", "Route",
		"ſ", "s", "S", // LATIN SMALL LETTER LONG S folds to s, lowers to itself
		"\u212a", "k", "K", // KELVIN SIGN lowers to k
		"ς", "σ", "Σ", // final sigma folds to σ, lowers to itself
		"İ", "i\u0307", "i", "I", // 'İ' lowers to i and a combining dot
		"Straße", "STRASSE", "STRAßE", "\xff", "\ufffd",
	}
	// Behind these, NewSchema checks names through a map, not pairwise.
	pad := make([]Column, pairwiseCols)
	for i := range pad {
		pad[i] = Column{fmt.Sprintf("pad%d", i), value.KindInt}
	}
	for _, prefix := range []string{"", "Col_"} {
		for _, a := range names {
			for _, b := range names {
				a, b := prefix+a, prefix+b
				want := strings.ToLower(a) == strings.ToLower(b)
				if _, got := MustSchema(Column{a, value.KindInt}).Lookup(b); got != want {
					t.Errorf("schema (%q) Lookup(%q) = %v, want %v", a, b, got, want)
				}
				if _, err := NewSchema(Column{a, value.KindInt}, Column{b, value.KindInt}); (err != nil) != want {
					t.Errorf("NewSchema(%q, %q) err = %v, want a duplicate: %v", a, b, err, want)
				}
				wide := append(slices.Clone(pad), Column{a, value.KindInt}, Column{b, value.KindInt})
				if _, err := NewSchema(wide...); (err != nil) != want {
					t.Errorf("NewSchema(%d columns, %q, %q) err = %v, want a duplicate: %v", len(pad), a, b, err, want)
				}
			}
		}
	}
	if _, ok := MustSchema(Column{"ſ", value.KindInt}).Lookup("s"); ok || !strings.EqualFold("ſ", "s") {
		t.Error("'ſ' matched 's': the rule is strings.ToLower, not strings.EqualFold")
	}
	if _, ok := MustSchema(Column{"\u212a", value.KindInt}).Lookup("k"); !ok {
		t.Error("the Kelvin sign did not match 'k'")
	}
}

// TestSchemaLookupAfterFrame: a schema that arrived over the wire answers
// lookups from many goroutines at once — a site engine stores decoded
// relations and concurrent queries bind against them. Run under -race: an
// index built lazily on first lookup raced here.
func TestSchemaLookupAfterFrame(t *testing.T) {
	ref := testSchema(t)
	r, err := ReadFrame(AppendFrame(nil, New(ref)))
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schema
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range []string{"numbytes", "NumBytes", "Router", "nope"} {
				i, ok := s.Lookup(name)
				if want, _ := ref.Lookup(name); ok != (name != "nope") || i != want {
					t.Errorf("Lookup(%s) on a decoded schema = %d, %v", name, i, ok)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSchemaProjectAndConcat(t *testing.T) {
	s := testSchema(t)
	p, idx, err := s.Project([]string{"DestAS", "SourceAS"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || idx[0] != 1 || idx[1] != 0 {
		t.Errorf("Project = %s idx %v", p, idx)
	}
	if _, _, err := s.Project([]string{"missing"}); err == nil {
		t.Error("Project(missing) should error")
	}
	c, err := s.Concat(Column{"cnt", value.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 {
		t.Errorf("Concat len = %d", c.Len())
	}
	if _, err := s.Concat(Column{"sourceas", value.KindInt}); err == nil {
		t.Error("Concat duplicate should error")
	}
}

func TestSchemaEqual(t *testing.T) {
	a, b := testSchema(t), testSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	c := MustSchema(Column{"SourceAS", value.KindFloat})
	if a.Equal(c) {
		t.Error("different schemas Equal")
	}
}

func mkRel(t *testing.T) *Relation {
	t.Helper()
	r := New(testSchema(t))
	r.MustAppend(value.NewInt(1), value.NewInt(10), value.NewFloat(100), value.NewString("r1"))
	r.MustAppend(value.NewInt(1), value.NewInt(10), value.NewFloat(50), value.NewString("r1"))
	r.MustAppend(value.NewInt(2), value.NewInt(20), value.NewFloat(75), value.NewString("r2"))
	r.MustAppend(value.NewInt(1), value.NewInt(20), value.NewFloat(25), value.NewString("r2"))
	return r
}

func TestAppendArity(t *testing.T) {
	r := New(testSchema(t))
	if err := r.Append(Row{value.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestDistinctProject(t *testing.T) {
	r := mkRel(t)
	p, err := r.DistinctProject([]string{"SourceAS", "DestAS"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Errorf("distinct project rows = %d, want 3", p.Len())
	}
	// First-seen order preserved.
	if p.Rows[0][0].Int() != 1 || p.Rows[0][1].Int() != 10 {
		t.Errorf("first row = %v", p.Rows[0])
	}
}

func TestSortBy(t *testing.T) {
	r := mkRel(t)
	if err := r.SortBy("SourceAS", "DestAS"); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 10}, {1, 10}, {1, 20}, {2, 20}}
	for i, w := range want {
		if r.Rows[i][0].Int() != w[0] || r.Rows[i][1].Int() != w[1] {
			t.Errorf("row %d = (%v,%v), want %v", i, r.Rows[i][0], r.Rows[i][1], w)
		}
	}
	if err := r.SortBy("missing"); err == nil {
		t.Error("SortBy(missing) should error")
	}
}

// TestProject: a plain projection keeps every row, duplicates included,
// in order, with the columns in the order asked for.
func TestProject(t *testing.T) {
	r := mkRel(t)
	p, err := r.Project([]string{"DestAS", "SourceAS"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Schema.Names(); len(got) != 2 || got[0] != "DestAS" || got[1] != "SourceAS" {
		t.Fatalf("projected schema %s", p.Schema)
	}
	if p.Len() != r.Len() {
		t.Fatalf("projection has %d rows, want %d", p.Len(), r.Len())
	}
	for i, row := range r.Rows {
		if p.Rows[i][0] != row[1] || p.Rows[i][1] != row[0] {
			t.Errorf("row %d = %v, want (%v, %v)", i, p.Rows[i], row[1], row[0])
		}
	}
	if _, err := r.Project([]string{"missing"}); err == nil {
		t.Error("Project(missing) should error")
	}
}

func TestClone(t *testing.T) {
	r := mkRel(t)
	c := r.Clone()
	c.Rows[0][0] = value.NewInt(99)
	if r.Rows[0][0].Int() == 99 {
		t.Error("clone shares row storage")
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := Row{value.NewInt(1), value.NewString("23")}
	b := Row{value.NewInt(12), value.NewString("3")}
	if RowKey(a, []int{0, 1}) == RowKey(b, []int{0, 1}) {
		t.Error("row keys collide across field boundaries")
	}
}

func TestFormat(t *testing.T) {
	r := mkRel(t)
	s := r.Format(2)
	if !strings.Contains(s, "SourceAS") || !strings.Contains(s, "2 more rows") {
		t.Errorf("Format output unexpected:\n%s", s)
	}
}

func TestSortKeysDesc(t *testing.T) {
	r := mkRel(t)
	if err := r.SortKeys(SortKey{Name: "NumBytes", Desc: true}); err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 75, 50, 25}
	for i, w := range want {
		if r.Rows[i][2].Float() != w {
			t.Errorf("row %d NumBytes = %v, want %v", i, r.Rows[i][2], w)
		}
	}
	// Mixed directions: SourceAS asc, NumBytes desc.
	if err := r.SortKeys(SortKey{Name: "SourceAS"}, SortKey{Name: "NumBytes", Desc: true}); err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 1 || r.Rows[0][2].Float() != 100 {
		t.Errorf("first row = %v", r.Rows[0])
	}
	if err := r.SortKeys(SortKey{Name: "missing"}); err == nil {
		t.Error("SortKeys(missing) should error")
	}
}

// TestKeysEqualIsKeyEquality: KeysEqual is exactly equality of Key() — the
// classes RowKey, DistinctProject and the equi probe group by — on every
// pair of a table of corner values: value.Equal is not, since it calls NaN
// equal to every number and rounds large ints to floats.
func TestKeysEqualIsKeyEquality(t *testing.T) {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	vals := []value.V{
		value.Null, f(math.NaN()), f(math.Float64frombits(0x7ff8000000000001)),
		f(0), f(math.Copysign(0, -1)), i(0), i(1), f(1), f(1.5), value.NewBool(true), value.NewBool(false),
		i(1<<53 + 1), f(1 << 53), i(1 << 53), f(math.Inf(1)), f(math.Inf(-1)),
		s(""), s("1"), s("a"), s("NaN"),
		f(0x1p63), f(-0x1p63), i(math.MinInt64), i(math.MaxInt64),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := a.Key() == b.Key()
			if got := KeysEqual(Row{a}, []int{0}, Row{b}, []int{0}); got != want {
				t.Errorf("KeysEqual(%#v, %#v) = %v, Key() equality %v", a, b, got, want)
			}
			if got := SameKey(a, b); got != want {
				t.Errorf("SameKey(%#v, %#v) = %v, Key() equality %v", a, b, got, want)
			}
		}
	}
	// The float 2^63 is no int64: it keys apart from MinInt64 and −2^63.
	if SameKey(f(0x1p63), i(math.MinInt64)) || SameKey(f(0x1p63), f(-0x1p63)) || !SameKey(f(-0x1p63), i(math.MinInt64)) {
		t.Error("SameKey does not key 2^63 apart from MinInt64 and −2^63, or keys −2^63 apart from MinInt64")
	}
	// Two columns: every column must match.
	if KeysEqual(Row{i(1), f(math.NaN())}, []int{0, 1}, Row{f(1), f(2.5)}, []int{0, 1}) {
		t.Error("two-column keys differing in NaN vs 2.5 compared equal")
	}
}
