package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/value"
)

// sliceStableSortKeys is SortKeys as it was before the permutation sort:
// sort.SliceStable over the rows with the same comparator. It is the
// reference the differential test holds SortKeys to.
func sliceStableSortKeys(r *Relation, keys ...SortKey) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i], _ = r.Schema.Lookup(k.Name)
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		ra, rb := r.Rows[a], r.Rows[b]
		for i, p := range idx {
			c, err := value.Compare(ra[p], rb[p])
			if err != nil {
				if value.Less(ra[p], rb[p]) {
					c = -1
				} else if value.Less(rb[p], ra[p]) {
					c = 1
				} else {
					continue
				}
			}
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// TestSortKeysMatchesSliceStable sorts random relations with SortKeys and
// with the sort.SliceStable reference and requires the same row order.
// Keys repeat (stability decides), and the columns hold NULLs, ints
// against integral floats, strings, and strings mixed with numbers (the
// value.Less fallback), under random ASC/DESC key lists. NaN compares
// equal to every number, so a column mixing NaN with numbers is no strict
// weak order and its sorted order depends on the algorithm; both sorts
// are insertion sorts up to 12 rows, where such columns are generated,
// and above that NaN appears only in a column whose other values are
// NULLs and strings.
func TestSortKeysMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	schema := MustSchema(
		Column{Name: "num", Kind: value.KindInt},    // ints and integral floats
		Column{Name: "str", Kind: value.KindString}, // strings and NULLs
		Column{Name: "mix", Kind: value.KindString}, // strings and numbers
		Column{Name: "nan", Kind: value.KindFloat},  // NaN among non-numbers, or among numbers when short
		Column{Name: "pos", Kind: value.KindInt},    // the input position, never a key
	)
	pick := func(short bool, col int) value.V {
		switch r := rng.Intn(8); {
		case r == 0:
			return value.Null
		case col == 0 && r < 4:
			return value.NewInt(int64(rng.Intn(5)))
		case col == 0:
			return value.NewFloat(float64(rng.Intn(5)))
		case col == 1:
			return value.NewString(fmt.Sprint("s", rng.Intn(4)))
		case col == 2 && r < 4:
			return value.NewString(fmt.Sprint(rng.Intn(3)))
		case col == 2:
			return value.NewInt(int64(rng.Intn(3)))
		case r < 4:
			return value.NewFloat(math.NaN())
		case short && r < 6:
			return value.NewFloat(float64(rng.Intn(3)) - 0.5)
		}
		return value.NewString(fmt.Sprint("t", rng.Intn(3)))
	}
	names := schema.Names()[:4]
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		short := trial%2 == 0
		if short {
			n = rng.Intn(13)
		}
		r := New(schema)
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, Row{pick(short, 0), pick(short, 1), pick(short, 2), pick(short, 3), value.NewInt(int64(i))})
		}
		var keys []SortKey
		for _, k := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
			keys = append(keys, SortKey{Name: names[k], Desc: rng.Intn(2) == 0})
		}
		want := r.Clone()
		sliceStableSortKeys(want, keys...)
		if err := r.SortKeys(keys...); err != nil {
			t.Fatal(err)
		}
		for i := range r.Rows {
			if r.Rows[i][4].Int() != want.Rows[i][4].Int() {
				t.Fatalf("trial %d, keys %v: row %d is input row %d, want %d\ngot:\n%s\nwant:\n%s",
					trial, keys, i, r.Rows[i][4].Int(), want.Rows[i][4].Int(), r.Format(-1), want.Format(-1))
			}
		}
	}
}

// BenchmarkSortKeys sorts a 2 000-row answer shaped like a GROUP BY
// CustName result — a unique name, a count and an average — by every
// column, as the serving tier orders an answer without ORDER BY.
func BenchmarkSortKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := New(MustSchema(
		Column{Name: "CustName", Kind: value.KindString},
		Column{Name: "n", Kind: value.KindInt},
		Column{Name: "avg_qty", Kind: value.KindFloat},
	))
	for _, i := range rng.Perm(2000) {
		src.Rows = append(src.Rows, Row{
			value.NewString(fmt.Sprintf("Customer#%09d", i)),
			value.NewInt(int64(rng.Intn(50))),
			value.NewFloat(rng.Float64() * 50),
		})
	}
	r := New(src.Schema)
	r.Rows = make([]Row, len(src.Rows))
	keys := src.Schema.Names()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(r.Rows, src.Rows)
		if err := r.SortBy(keys...); err != nil {
			b.Fatal(err)
		}
	}
}
