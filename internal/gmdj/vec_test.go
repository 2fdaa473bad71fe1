package gmdj

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/vec"
)

// Differential tests: the vectorized evaluation EvalSub runs must be
// byte-exact with the row reference eval — identical value kinds,
// identical float bit patterns (accumulation order preserved), identical
// NULLs — for any worker count.

// rowSub is the row-at-a-time reference for EvalSub.
func rowSub(b, r *relation.Relation, md MD, opts SubOpts) (*relation.Relation, error) {
	return eval(b, r, md, true, opts.Finalize, opts.Touched)
}

// exactRows compares two relations value-by-value with bit-level float
// equality; it returns "" when identical.
func exactRows(a, b *relation.Relation) string {
	if a.Schema.String() != b.Schema.String() {
		return fmt.Sprintf("schema %s vs %s", a.Schema, b.Schema)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x != y { // floats by their bits
				return fmt.Sprintf("row %d col %d: %#v vs %#v", i, j, x, y)
			}
		}
	}
	return ""
}

// randDetail builds a mixed-kind detail relation with NULLs:
// (K Int, G String, Q Int, P Float, Flag Bool).
func randDetail(rng *rand.Rand, n int) *relation.Relation {
	s := relation.MustSchema(
		relation.Column{Name: "K", Kind: value.KindInt},
		relation.Column{Name: "G", Kind: value.KindString},
		relation.Column{Name: "Q", Kind: value.KindInt},
		relation.Column{Name: "P", Kind: value.KindFloat},
		relation.Column{Name: "Flag", Kind: value.KindBool},
	)
	r := relation.New(s)
	groups := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		row := relation.Row{
			value.NewInt(int64(rng.Intn(5))),
			value.NewString(groups[rng.Intn(len(groups))]),
			value.NewInt(int64(rng.Intn(1000) - 500)),
			value.NewFloat(float64(rng.Intn(2000))/8 - 100),
			value.NewBool(rng.Intn(2) == 0),
		}
		// Sprinkle NULLs on the non-key columns.
		for j := 2; j < len(row); j++ {
			if rng.Intn(10) == 0 {
				row[j] = value.Null
			}
		}
		r.MustAppend(row...)
	}
	return r
}

// diffMDs is the shape battery: equi probes, pure nested-loop θ,
// arithmetic, IN/LIKE/BETWEEN, base-side scalar references, multi-θ,
// every aggregate family, CASE / coalesce / abs / least / greatest in θ
// residuals and aggregate arguments, and θs of one MD on different key
// groupings (baseWheres has the base filters).
func diffMDs() []MD {
	return []MD{
		{ // equi + residual with base reference
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("count(*) AS cnt"),
				agg.MustParseSpec("sum(F.Q) AS sq"),
				agg.MustParseSpec("avg(F.P) AS ap"),
			}},
			Thetas: []expr.Expr{expr.MustParse("F.K = B.K AND F.Q >= B.K * 10")},
		},
		{ // no equi pairs: nested loop over every lane
			Aggs:   [][]agg.Spec{{agg.MustParseSpec("count(*) AS c2"), agg.MustParseSpec("min(F.P) AS mp")}},
			Thetas: []expr.Expr{expr.MustParse("F.Q + B.K > 100 OR F.Flag")},
		},
		{ // string equi key, string aggregates, LIKE / IN / BETWEEN
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("max(F.G) AS mg"),
				agg.MustParseSpec("count(F.P) AS cp"),
			}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.G = B.G AND (F.G LIKE '%a%' OR F.K IN (1, 2)) AND F.Q BETWEEN -250 AND 250")},
		},
		{ // two θ in one MD, arithmetic with NULL propagation and division
			Aggs: [][]agg.Spec{
				{agg.MustParseSpec("sum(F.P / 3) AS sp")},
				{agg.MustParseSpec("count(*) AS ch"), agg.MustParseSpec("avg(F.Q % 7) AS aq")},
			},
			Thetas: []expr.Expr{
				expr.MustParse("F.K = B.K AND NOT (F.Q < -400)"),
				expr.MustParse("F.K = B.K AND F.P * 2 > B.K - 1"),
			},
		},
		{ // CASE arguments: Int/Float arm mixes into sum/avg/min, no ELSE,
			// NULL and non-boolean conditions, string arms from a
			// dictionary and a constant
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("sum(CASE WHEN F.Q > 0 THEN F.Q ELSE F.P END) AS s_mix"),
				agg.MustParseSpec("avg(CASE WHEN F.Flag THEN F.P WHEN F.Q < 0 THEN F.Q END) AS a_mix"),
				agg.MustParseSpec("min(CASE WHEN F.Q THEN F.Q ELSE F.P END) AS m_mix"),
				agg.MustParseSpec("max(CASE WHEN F.P > 50 THEN F.G WHEN F.P > 0 THEN 'low' END) AS g_case"),
				agg.MustParseSpec("sum(CASE WHEN F.Q > 0 THEN 1 ELSE 0 END) AS n_pos"),
			}},
			Thetas: []expr.Expr{expr.MustParse("F.K = B.K")},
		},
		{ // scalar calls in arguments and in the residual
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("sum(abs(F.Q)) AS sa"),
				agg.MustParseSpec("min(least(F.Q, F.P, 10)) AS ml"),
				agg.MustParseSpec("max(greatest(F.P, F.Q)) AS mg2"),
				agg.MustParseSpec("sum(coalesce(F.Q, F.P, 0)) AS sc"),
				agg.MustParseSpec("count(coalesce(F.P, F.Q)) AS cc"),
			}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.K = B.K AND abs(F.Q) > B.K * 20 AND coalesce(F.P, 0) < greatest(B.K, 2) * 60")},
		},
		{ // CASE as the whole θ (nested loop), a per-base-row condition,
			// nested CASE inside a call, arithmetic over a mixed-kind CASE
			Aggs: [][]agg.Spec{
				{agg.MustParseSpec("count(*) AS cn"),
					agg.MustParseSpec("sum(greatest(CASE WHEN F.Q > 100 THEN F.Q ELSE 0 END, abs(F.P))) AS sg")},
				{agg.MustParseSpec("avg(-CASE WHEN F.Flag THEN F.Q ELSE F.P END * 2) AS an")},
			},
			Thetas: []expr.Expr{
				expr.MustParse("CASE WHEN B.K > 2 THEN F.Q > 0 WHEN F.Flag THEN F.P < 50 ELSE F.K = B.K END"),
				expr.MustParse("F.K = B.K AND CASE WHEN F.Q > 0 THEN F.P ELSE F.Q END > least(B.K, 3) AND " +
					"coalesce(CASE WHEN F.P > 0 THEN F.G END, 'none') LIKE '%a%'"),
			},
		},
		{ // arms that fail — abs of a string, arithmetic on a string — but
			// only for the lanes that reach them: whether the evaluation
			// errors depends on the data, and must not on the engine
			Aggs: [][]agg.Spec{{
				agg.MustParseSpec("sum(CASE WHEN F.Q > 400 THEN abs(F.G) ELSE F.Q END) AS lazy1"),
			}},
			Thetas: []expr.Expr{expr.MustParse(
				"F.K = B.K AND CASE WHEN F.Q < -450 THEN F.G + 1 ELSE F.Q END > -1000")},
		},
		mixedKeyMD(),
	}
}

// mixedKeyMD is one MD whose θs probe different key groupings — θ_1 on K,
// θ_2 on G — beside a θ_3 with no equi pair, each reading other
// NULL-bearing columns: every θ's programs must run on its own grouping's
// clustered view, or on the batch for θ_3.
func mixedKeyMD() MD {
	return MD{
		Aggs: [][]agg.Spec{
			{agg.MustParseSpec("sum(F.P) AS kp"), agg.MustParseSpec("count(F.Flag) AS kf")},
			{agg.MustParseSpec("avg(F.Q) AS gq"), agg.MustParseSpec("min(F.P) AS gp")},
			{agg.MustParseSpec("count(*) AS nc"), agg.MustParseSpec("max(F.G) AS ng")},
		},
		Thetas: []expr.Expr{
			expr.MustParse("F.K = B.K AND F.Q > -200"),
			expr.MustParse("F.G = B.G AND (F.Flag OR F.P < 50)"),
			expr.MustParse("F.Q + B.K > 300 AND F.P > 0"),
		},
	}
}

func diffBase(t *testing.T, detail *relation.Relation) *relation.Relation {
	t.Helper()
	b, err := EvalBase(detail, BaseDef{Cols: []string{"K", "G"}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVecMatchesRowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		detail := randDetail(rng, rng.Intn(200)+1)
		for shape := range baseWheres {
			fuzzBase(t, detail, shape)
		}
		b := diffBase(t, detail)
		for mi, md := range diffMDs() {
			for _, opts := range []SubOpts{
				{},
				{Finalize: true, Touched: true},
			} {
				want, rowErr := rowSub(b, detail, md, opts)
				for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
					vecOpts := opts
					vecOpts.Workers = workers
					got, vecErr := EvalSub(b, detail, md, vecOpts)
					if (rowErr != nil) != (vecErr != nil) {
						t.Fatalf("trial %d md %d W=%d: row err %v, vec err %v", trial, mi, workers, rowErr, vecErr)
					}
					if rowErr != nil {
						continue
					}
					if d := exactRows(want, got); d != "" {
						t.Fatalf("trial %d md %d W=%d opts=%+v: %s", trial, mi, workers, opts, d)
					}
				}
			}
		}
	}
}

// TestVecParallelMerge exercises the worker-partitioned path with many
// workers on one shared slab — run under -race, this is the data-race
// check for the parallel per-site evaluation. Workers own contiguous
// ranges of base rows; with a few hundred groups and 3, 5 or 7 workers the
// range boundaries fall inside runs of eight groups, whose sum flags a
// bit-packed lane would keep in one shared byte.
func TestVecParallelMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	detail := randDetail(rng, 500)
	b, err := EvalBase(detail, BaseDef{Cols: []string{"K", "G", "Q"}})
	if err != nil {
		t.Fatal(err)
	}
	md := diffMDs()[0]
	want, err := rowSub(b, detail, md, SubOpts{Finalize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 7, 8, 64} {
		if n := b.Len(); (n/workers)%8 == 0 {
			t.Fatalf("W=%d: the first range boundary (%d of %d groups) is a multiple of 8", workers, n/workers, n)
		}
		got, err := EvalSub(b, detail, md, SubOpts{Workers: workers, Finalize: true})
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if d := exactRows(want, got); d != "" {
			t.Fatalf("W=%d: %s", workers, d)
		}
	}
}

// TestVecConditionalAggregateExact: the conditional-aggregation idiom —
// CASE inside an aggregate argument, CASE as a base filter — runs on the
// kernels and is byte-exact with the row reference.
func TestVecConditionalAggregateExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	detail := randDetail(rng, 60)
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	def := BaseDef{Cols: []string{"K", "G"}, Where: expr.MustParse("CASE WHEN F.Q > -400 THEN 1 ELSE 0 END = 1")}
	want, err := EvalBase(detail, def)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := new(Chain).EvalBaseFrame(batch, &def)
	if err != nil {
		t.Fatal(err)
	}
	if boxed := relation.AppendFrame(nil, want); !bytes.Equal(framed.Bytes(), boxed) {
		t.Fatalf("base values: framed from the lanes\n% x\nfrom EvalBase's rows\n% x", framed.Bytes(), boxed)
	}
	b := want
	md := MD{
		Aggs: [][]agg.Spec{{
			agg.MustParseSpec("sum(CASE WHEN F.Q > 0 THEN F.Q ELSE 0 END) AS pos"),
		}},
		Thetas: []expr.Expr{expr.MustParse("F.K = B.K")},
	}
	if want, err = rowSub(b, detail, md, SubOpts{}); err != nil {
		t.Fatal(err)
	}
	var stats vec.Stats
	got, err := new(Chain).EvalSub(b, detail, md, SubOpts{Stats: &stats, DetailBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if d := exactRows(want, got); d != "" {
		t.Fatal(d)
	}
	if stats.Batches == 0 {
		t.Fatal("the CASE argument did not run on the kernels: no batch evaluated")
	}
}

// TestVecDetailBatchReuse: a pre-built batch (the site-side cache) gives
// the same answer as on-the-fly conversion.
func TestVecDetailBatchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	detail := randDetail(rng, 80)
	b := diffBase(t, detail)
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	md := diffMDs()[0]
	want, err := EvalSub(b, detail, md, SubOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalSub(b, detail, md, SubOpts{DetailBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	if d := exactRows(want, got); d != "" {
		t.Fatal(d)
	}
}

// TestVecErrorPresenceMatchesRow: evaluation errors surface from both
// evaluations or from neither — a string compared against a number, and a
// CASE arm that fails (abs of a string) for exactly the lanes that reach it.
func TestVecErrorPresenceMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	detail := randDetail(rng, 30)
	b := diffBase(t, detail)
	count := [][]agg.Spec{{agg.MustParseSpec("count(*) AS c")}}
	lazyArm := func(threshold int) [][]agg.Spec {
		return [][]agg.Spec{{agg.MustParseSpec(
			fmt.Sprintf("sum(CASE WHEN F.Q > %d THEN abs(F.G) ELSE F.Q END) AS s", threshold))}}
	}
	for _, tc := range []struct {
		name    string
		aggs    [][]agg.Spec
		theta   string
		wantErr string
	}{
		{"string against number", count, "F.K = B.K AND F.G > 5", "θ_1"},
		{"failing arm some lanes reach", lazyArm(0), "F.K = B.K", "aggregate arg"},
		{"failing arm no lane reaches", lazyArm(1000), "F.K = B.K", ""},
	} {
		md := MD{Aggs: tc.aggs, Thetas: []expr.Expr{expr.MustParse(tc.theta)}}
		want, rowErr := rowSub(b, detail, md, SubOpts{})
		got, vecErr := EvalSub(b, detail, md, SubOpts{})
		if (rowErr != nil) != (tc.wantErr != "") || (vecErr != nil) != (tc.wantErr != "") {
			t.Fatalf("%s: row err %v, vec err %v, want an error: %v", tc.name, rowErr, vecErr, tc.wantErr != "")
		}
		if tc.wantErr == "" {
			if d := exactRows(want, got); d != "" {
				t.Fatalf("%s: %s", tc.name, d)
			}
		} else if !strings.Contains(vecErr.Error(), tc.wantErr) {
			t.Fatalf("%s: vec error %q not attributed to %s", tc.name, vecErr, tc.wantErr)
		}
	}
}

// TestVecConcurrentFirstProbe: sixteen evaluations start at once on one
// fresh detail batch, half of one MD and half of another whose θs read
// other columns on the same key, so the first builds of the key grouping
// and of its two clustered views are contended and every kernel worker
// reads the memo the others built — under -race, the check that the
// groupings and views are published safely.
func TestVecConcurrentFirstProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	detail := randDetail(rng, 400)
	b := diffBase(t, detail)
	mds := []MD{diffMDs()[3], diffMDs()[4]}
	wants := make([]*relation.Relation, len(mds))
	for i, md := range mds {
		var err error
		if wants[i], err = rowSub(b, detail, md, SubOpts{Finalize: true}); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := vec.FromRelation(detail)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	diffs := make([]string, 16)
	for i := range diffs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			md := mds[i%len(mds)]
			got, err := EvalSub(b, detail, md, SubOpts{Finalize: true, Workers: 1 + i%4, DetailBatch: batch})
			if err != nil {
				diffs[i] = err.Error()
				return
			}
			diffs[i] = exactRows(wants[i%len(mds)], got)
		}(i)
	}
	wg.Wait()
	for i, d := range diffs {
		if d != "" {
			t.Errorf("evaluation %d: %s", i, d)
		}
	}
}

// TestVecMixedKeyViews: an MD whose θs probe two different key groupings
// and one that probes none is byte-equal to the row reference for any
// worker count, with a cached batch and without.
func TestVecMixedKeyViews(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		detail := randDetail(rng, 300)
		b := diffBase(t, detail)
		batch, err := vec.FromRelation(detail)
		if err != nil {
			t.Fatal(err)
		}
		md := mixedKeyMD()
		opts := SubOpts{Finalize: true, Touched: true}
		want, err := rowSub(b, detail, md, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			for _, cached := range []*vec.Batch{nil, batch} {
				vecOpts := opts
				vecOpts.Workers, vecOpts.DetailBatch = workers, cached
				got, err := EvalSub(b, detail, md, vecOpts)
				if err != nil {
					t.Fatalf("trial %d W=%d: %v", trial, workers, err)
				}
				if d := exactRows(want, got); d != "" {
					t.Fatalf("trial %d W=%d cached=%v: %s", trial, workers, cached != nil, d)
				}
			}
		}
	}
}

// TestBaseFrameIsFrameOfRows: the base round's reply, framed from the
// batch's lanes (EvalBaseFrame), is byte for byte the frame of the rows
// EvalBase computes from the relation, over STRING, INT, FLOAT,
// BOOL and NULL columns holding NULLs, with and without a base filter, one
// that keeps nothing among them, on a fresh chain and on one that ran every
// case before.
func TestBaseFrameIsFrameOfRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	detail := randDetail(rng, 300)
	schema, err := detail.Schema.Concat(relation.Column{Name: "N", Kind: value.KindNull})
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(schema)
	for i, row := range detail.Rows {
		row = append(slices.Clone(row), value.Null)
		if i%7 == 0 {
			row[1] = value.Null // a NULL key in the STRING column
		}
		r.Rows = append(r.Rows, row)
	}
	batch, err := vec.FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	used := new(Chain)
	for _, cols := range [][]string{{"G"}, {"K", "G"}, {"Q", "P", "N"}, {"G", "K", "Q", "P", "Flag", "N"}} {
		for _, where := range []string{"", "F.Q > 0 AND F.G <> 'beta'", "F.Q > 1000"} {
			def := BaseDef{Cols: cols}
			if where != "" {
				def.Where = expr.MustParse(where)
			}
			rows, err := EvalBase(r, def)
			if err != nil {
				t.Fatal(err)
			}
			want, err := relation.FrameOf(rows)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []*Chain{new(Chain), used} {
				got, err := c.EvalBaseFrame(batch, &def)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("π_%v WHERE %q: framed from the lanes\n% x\nfrom the rows\n% x", cols, where, got.Bytes(), want.Bytes())
				}
			}
		}
	}
}
