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

// BenchmarkDecodeFrame reads a states-only reply of 2 000 rows and three
// states (count(*) and avg's sum and count, the sum's column declared
// FLOAT holding INTs): boxed into rows, and checked without boxing.
func BenchmarkDecodeFrame(b *testing.B) {
	r := New(MustSchema(
		Column{Name: "cnt1__p0", Kind: value.KindInt},
		Column{Name: "avg1__p0", Kind: value.KindFloat},
		Column{Name: "avg1__p1", Kind: value.KindInt},
	))
	for g := 0; g < 2000; g++ {
		n := int64(g%5 + 1)
		r.MustAppend(value.NewInt(n), value.NewInt(n*int64(g%50+1)), value.NewInt(n))
	}
	frame := AppendFrame(nil, r)
	for _, c := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"ReadFrame", func(b []byte) error { _, err := ReadFrame(b); return err }},
		{"DecodeFrame", func(b []byte) error { _, err := DecodeFrame(b); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			for i := 0; i < b.N; i++ {
				if err := c.decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
