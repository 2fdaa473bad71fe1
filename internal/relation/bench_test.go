package relation

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

func benchRelation(n int) *Relation {
	rng := rand.New(rand.NewSource(1))
	r := New(MustSchema(
		Column{Name: "a", Kind: value.KindInt},
		Column{Name: "b", Kind: value.KindInt},
		Column{Name: "c", Kind: value.KindString},
	))
	r.Rows = make([]Row, n)
	for i := range r.Rows {
		r.Rows[i] = Row{
			value.NewInt(int64(rng.Intn(100))),
			value.NewInt(int64(rng.Intn(1000))),
			value.NewString("payload"),
		}
	}
	return r
}

func BenchmarkRowKey(b *testing.B) {
	r := benchRelation(1)
	idx := []int{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RowKey(r.Rows[0], idx)
	}
}

// BenchmarkHashRow is the allocation-free replacement for RowKey on the
// grouping hot paths; compare its allocs/op against BenchmarkRowKey.
func BenchmarkHashRow(b *testing.B) {
	r := benchRelation(1)
	idx := []int{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HashRow(r.Rows[0], idx)
	}
}

func BenchmarkDistinctProject(b *testing.B) {
	r := benchRelation(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.DistinctProject([]string{"a", "b"}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(r.Len()))
}

func BenchmarkSortBy(b *testing.B) {
	src := benchRelation(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := src.Clone()
		b.StartTimer()
		if err := r.SortBy("a", "b"); err != nil {
			b.Fatal(err)
		}
	}
}
