package agg

import (
	"testing"

	"repro/internal/relation"
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

// BenchmarkMergeLane merges one 2 000-group state lane of a states-only
// reply, INT or FLOAT, into a sum's slab by position, as the coordinator
// merges each primitive column of a site's reply: in one pass (MergeLane),
// and value by value as the frame boxes them (Merge), the path MergeLane
// takes for a lane with no typed form.
func BenchmarkMergeLane(b *testing.B) {
	const groups = 2000
	for _, c := range []struct {
		kind  value.Kind
		typed bool
	}{{value.KindInt, true}, {value.KindInt, false}, {value.KindFloat, true}, {value.KindFloat, false}} {
		kind, name := c.kind, c.kind.String()+"/value"
		if c.typed {
			name = c.kind.String() + "/lane"
		}
		b.Run(name, func(b *testing.B) {
			rel := relation.New(relation.MustSchema(relation.Column{Name: "s__p0", Kind: kind}))
			at := make([]int, groups)
			for g := range at {
				v := value.NewInt(int64(g%50 + 1))
				if kind == value.KindFloat {
					v = value.NewFloat(float64(g) / 4)
				}
				rel.MustAppend(v)
				at[g] = g
			}
			h, err := relation.DecodeFrame(relation.AppendFrame(nil, rel))
			if err != nil {
				b.Fatal(err)
			}
			s := NewSlab([]Spec{MustParseSpec("sum(x) AS s")}, groups)
			var sc LaneScratch
			b.ReportAllocs()
			b.ResetTimer()
			merge := func(j int, v value.V) error { return s.Merge(at[j], 0, v) }
			for i := 0; i < b.N; i++ {
				var err error
				if c.typed {
					err = s.MergeLane(0, at, h, 0, &sc)
				} else {
					err = h.Lane(0, merge)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
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
