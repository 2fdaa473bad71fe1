package agg

import (
	"testing"

	"repro/internal/value"
)

func BenchmarkSlabAdd(b *testing.B) {
	for _, spec := range []string{"count(*) AS c", "sum(x) AS s", "avg(x) AS a", "var(x) AS v"} {
		b.Run(spec[:3], func(b *testing.B) {
			s := NewSlab([]Spec{MustParseSpec(spec)}, 1)
			v := value.NewInt(42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < s.Width(); p++ {
					if err := s.Add(0, p, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkSlabMerge(b *testing.B) {
	s := NewSlab([]Spec{MustParseSpec("sum(x) AS s")}, 1)
	v := value.NewInt(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Merge(0, 0, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlabExtremum folds a 1 024-value int or float lane into a
// min/max slot, the fold a site runs per matched base row for MIN and MAX.
func BenchmarkSlabExtremum(b *testing.B) {
	ints, floats := make([]int64, 1024), make([]float64, 1024)
	for i := range ints {
		ints[i] = int64(i * 7919 % 1024)
		floats[i] = float64(ints[i]) / 4
	}
	for _, spec := range []string{"min(x) AS lo", "max(x) AS hi"} {
		b.Run(spec[:3]+"/int", func(b *testing.B) {
			s := NewSlab([]Spec{MustParseSpec(spec)}, 1)
			for i := 0; i < b.N; i++ {
				if err := s.AddInts(0, 0, value.KindInt, ints, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec[:3]+"/float", func(b *testing.B) {
			s := NewSlab([]Spec{MustParseSpec(spec)}, 1)
			for i := 0; i < b.N; i++ {
				if err := s.AddFloats(0, 0, floats, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := newHLL()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(value.NewInt(int64(i)))
	}
}

func BenchmarkHLLEncodeDecode(b *testing.B) {
	h := newHLL()
	for i := 0; i < 10000; i++ {
		h.Add(value.NewInt(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := h.Encode()
		if _, err := decodeHLL(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseSpec parses the aggregate specs of the benchmark
// workloads, the wire form a site parses once per request shape.
func BenchmarkParseSpec(b *testing.B) {
	specs := []string{
		"count(*) AS n", "avg(F.Quantity) AS avg_qty", "sum(F.Quantity) AS qty",
		"max(F.ExtendedPrice) AS top", "sum(F.NumBytes) AS sum1",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := ParseSpec(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
