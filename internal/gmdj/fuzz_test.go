package gmdj

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// FuzzVecVsRow is the differential fuzzer: a seeded generator expands
// (seed, size, shape) into a mixed-kind detail relation and an MD, and
// both engines must agree — byte-exact results on success, and matching
// error presence on failure. Shapes rotate through the kernel families
// (equi probe, nested loop, string keys, LIKE/IN/BETWEEN, arithmetic
// with NULLs, multi-θ). The base-values query goes through the same
// wringer first: the columnar path must produce the row path's groups in
// the row path's order, with and without a WHERE.
func FuzzVecVsRow(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(0))
	f.Add(int64(2), uint8(50), uint8(1))
	f.Add(int64(3), uint8(7), uint8(2))
	f.Add(int64(4), uint8(120), uint8(3))
	f.Add(int64(5), uint8(0), uint8(0))
	f.Add(int64(6), uint8(60), uint8(4))
	f.Add(int64(7), uint8(60), uint8(5))
	f.Add(int64(8), uint8(60), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		detail := fuzzDetail(rng, int(size))
		fuzzBase(t, detail, int(shape))
		b, err := EvalBase(detail, BaseDef{Cols: []string{"K", "G"}})
		if err != nil {
			t.Skip()
		}
		mds := diffMDs()
		md := mds[int(shape)%len(mds)]
		for _, workers := range []int{1, 3} {
			want, rowErr := EvalSub(b, detail, md, SubOpts{Engine: EngineRow, Finalize: true, Touched: true})
			got, vecErr := EvalSub(b, detail, md,
				SubOpts{Engine: EngineVector, Workers: workers, Finalize: true, Touched: true})
			if (rowErr != nil) != (vecErr != nil) {
				t.Fatalf("W=%d: row err %v, vec err %v", workers, rowErr, vecErr)
			}
			if rowErr != nil {
				return
			}
			if d := exactRows(want, got); d != "" {
				t.Fatalf("W=%d: engines diverge: %s", workers, d)
			}
		}
	})
}

// baseWheres are the base-values filters the fuzzer rotates through: none,
// vectorizable predicates over every column kind, one that raises the row
// engine's compare error, and one vec.Compile refuses.
var baseWheres = []string{
	"",
	"F.Q > 0",
	"F.P / 2 < 10 OR F.Flag",
	"F.G LIKE '%a%' AND F.K IN (1, 2)",
	"NOT (F.Q BETWEEN -100 AND 100)",
	"F.G > 1",
	"CASE WHEN F.Q > 0 THEN 1 ELSE 0 END = 1",
}

// fuzzBase checks EvalBaseBatch against EvalBase for three key sets and
// the shape's filter. Kind strays are coerced back first: a relation with
// no columnar form never reaches the columnar path (the site uses rows).
func fuzzBase(t *testing.T, detail *relation.Relation, shape int) {
	detail = detail.Clone()
	for _, row := range detail.Rows {
		if row[2].K == value.KindFloat {
			row[2] = value.NewInt(int64(row[2].F))
		}
	}
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	where := baseWheres[shape%len(baseWheres)]
	for _, cols := range [][]string{{"K", "G"}, {"P"}, {"Flag", "Q"}} {
		def := BaseDef{Cols: cols}
		if where != "" {
			def.Where = expr.MustParse(where)
		}
		want, rowErr := EvalBase(detail, def)
		got, vecErr := EvalBaseBatch(batch, def)
		if errors.Is(vecErr, vec.ErrUnsupported) {
			if !strings.HasPrefix(where, "CASE") {
				t.Fatalf("WHERE %s: columnar path refused a vectorizable filter: %v", where, vecErr)
			}
			continue
		}
		if (rowErr != nil) != (vecErr != nil) {
			t.Fatalf("π_%v WHERE %s: row err %v, vec err %v", cols, where, rowErr, vecErr)
		}
		if rowErr != nil {
			continue
		}
		if d := exactRows(want, got); d != "" {
			t.Fatalf("π_%v WHERE %s: base-values paths diverge: %s", cols, where, d)
		}
	}
}

// fuzzDetail is randDetail plus fuzz-only hostility: occasional kind
// strays in the Q column (forcing the row fallback) and duplicated rows.
// Floats stay within int64 range: Key() overflows int64 conversion on
// out-of-range integral floats, which is platform-defined and not a
// contract either engine needs to chase.
func fuzzDetail(rng *rand.Rand, n int) *relation.Relation {
	r := randDetail(rng, n)
	for i := range r.Rows {
		if rng.Intn(40) == 0 {
			r.Rows[i][2] = value.NewFloat(float64(rng.Intn(100)) / 4) // Float straying into the Int column
		}
		if rng.Intn(20) == 0 && i > 0 {
			r.Rows[i] = r.Rows[i-1]
		}
	}
	return r
}
