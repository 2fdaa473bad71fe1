package vec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/value"
)

// viewRel is a random keyRel whose every column mixes NULLs into its
// values: ints, floats with NaN, ±0 and integral values that equal ints,
// and dictionary strings.
func viewRel(rng *rand.Rand, n int) *relation.Relation {
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	ints := []value.V{i(0), i(5), i(-1), i(2), null}
	floats := []value.V{f(5), f(2), negz, posz, nan, nan2, f(2.5), null}
	strs := []value.V{s("a"), s(""), s("b"), s("cc"), null}
	bools := []value.V{vtrue, value.NewBool(false), null}
	r := keyRel()
	for k := 0; k < n; k++ {
		r.MustAppend(ints[rng.Intn(len(ints))], floats[rng.Intn(len(floats))],
			strs[rng.Intn(len(strs))], bools[rng.Intn(len(bools))])
	}
	return r
}

// TestGroupingViewMatchesSource: for every group of every key set, the
// clustered view's rows over Find's run are the source rows over the
// group's lanes — every lane whose key has the group's Key(), in scan
// order — value for value and NULL for NULL. A filter over the run (the
// kernels' contiguous path) selects what it selects over a copy of the run
// (the gather path), and a program that reads a column the view did not
// cluster does not compile.
func TestGroupingViewMatchesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		r := viewRel(rng, rng.Intn(200)+1)
		b, err := FromRelation(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ keys, cols []int }{
			{[]int{0}, []int{1, 2, 3}},
			{[]int{1}, []int{0, 3}},
			{[]int{2}, []int{1}},
			{[]int{0, 2}, []int{0, 1, 2, 3}},
			{[]int{1, 3}, []int{2, 2, 0}},
		} {
			g, err := b.Grouping(tc.keys)
			if err != nil {
				t.Fatal(err)
			}
			v, err := g.View(tc.cols)
			if err != nil {
				t.Fatal(err)
			}
			done := make(map[string]bool)
			for lane := 0; lane < b.Len(); lane++ {
				key := laneKey(b, tc.keys, lane)
				if done[key] {
					continue
				}
				done[key] = true
				var want []int32
				for l := lane; l < b.Len(); l++ {
					if laneKey(b, tc.keys, l) == key {
						want = append(want, int32(l))
					}
				}
				run := g.Find(r.Rows[lane], tc.keys)
				if d := viewAgrees(b, v, tc.cols, run, want); d != "" {
					t.Fatalf("trial %d keys %v cols %v group of lane %d: %s", trial, tc.keys, tc.cols, lane, d)
				}
			}
			if len(done) != g.Len() {
				t.Fatalf("keys %v: %d Key() classes, %d groups", tc.keys, len(done), g.Len())
			}
			unclustered := relation.Column{}
			for ci, sc := range b.Schema.Cols {
				if !v.clustered[ci] {
					unclustered = sc
					break
				}
			}
			if unclustered.Name != "" {
				_, err := Compile(expr.Col{Name: unclustered.Name}, expr.SingleRelation(b.Schema), v, new(Scratch))
				if err == nil || !strings.Contains(err.Error(), "column "+unclustered.Name+" ") {
					t.Fatalf("cols %v: a program reading %s compiled against the view: err %v", tc.cols, unclustered.Name, err)
				}
			}
		}
	}
}

// viewAgrees compares the view over run with the source over want, and a
// filter over run with one over a copy of it.
func viewAgrees(src, v *Batch, cols []int, run Sel, want []int32) string {
	lanes := run.lanes
	if len(lanes) != len(want) {
		return fmt.Sprintf("run %v has %d lanes, the group %d", lanes, len(lanes), len(want))
	}
	if lo, ok := v.run(lanes); !ok || lo != int(lanes[0]) {
		return fmt.Sprintf("run %v is not a run of the view's identity", lanes)
	}
	got, err := boxRows(v, cols, run)
	if err != nil {
		return err.Error()
	}
	wantSel, err := src.Select(want)
	if err != nil {
		return err.Error()
	}
	exp, err := boxRows(src, cols, wantSel)
	if err != nil {
		return err.Error()
	}
	runCopy, err := v.Select(lanes)
	if err != nil {
		return err.Error()
	}
	for k, lane := range lanes {
		for j, ci := range cols {
			if got[k][j] != exp[k][j] { // floats by their bits
				return fmt.Sprintf("column %d: view lane %d holds %#v, source lane %d %#v", ci, lane, got[k][j], want[k], exp[k][j])
			}
			if v.Cols[ci].IsNull(int(lane)) != src.Cols[ci].IsNull(int(want[k])) {
				return fmt.Sprintf("column %d: NULL bit of view lane %d differs from source lane %d", ci, lane, want[k])
			}
		}
	}
	for _, ci := range cols {
		name := v.Schema.Cols[ci].Name
		// The one-pass comparison kernel, and a tree that evaluates lanes.
		for _, text := range []string{name + " >= 2", "NOT (" + name + " < 0) OR " + name + " = 5"} {
			p, err := Compile(expr.MustParse(text), expr.SingleRelation(v.Schema), v, new(Scratch))
			if err != nil {
				return err.Error()
			}
			onRun, err := p.Filter(run)
			selected := fmt.Sprint(onRun.lanes, err) // the next Filter reuses the lanes
			onCopy, err := p.Filter(runCopy)
			if copied := fmt.Sprint(onCopy.lanes, err); copied != selected {
				return fmt.Sprintf("%s: run selects %s, its copy %s", text, selected, copied)
			}
		}
	}
	return ""
}

// TestGroupingViewsShare: a grouping memoizes its views by column set,
// builds each permuted column once for all of them, and hands every view
// the one identity selection Find's runs come from: the batch's own.
func TestGroupingViewsShare(t *testing.T) {
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grouping([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := g.View([]int{1, 2})
	v2, _ := g.View([]int{2, 1, 2})
	v3, _ := g.View([]int{1, 3})
	if v1 != v2 {
		t.Error("the same column set built two views")
	}
	if v1 == v3 {
		t.Error("different column sets share a view")
	}
	if &v1.Cols[1].Floats[0] != &v3.Cols[1].Floats[0] {
		t.Error("two views of one grouping hold separate copies of column 1")
	}
	if &v1.identity()[0] != &v3.identity()[0] || &v1.identity()[0] != &b.identity()[0] {
		t.Error("views of one grouping have separate identity selections")
	}
	if _, err := g.View([]int{4}); err == nil {
		t.Error("a view of a column past the schema was built")
	}
	if _, err := v1.Grouping([]int{0}); err == nil || !strings.Contains(err.Error(), "column I ") {
		t.Errorf("a grouping over a column the view does not hold: err %v", err)
	}
}

// TestCheckSelBounds: the checked constructor's one unsigned compare per
// lane rejects every entry outside [0, n).
func TestCheckSelBounds(t *testing.T) {
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	n := int32(b.Len())
	for _, bad := range []int32{-1, n, math.MaxInt32, math.MinInt32} {
		if _, err := b.Select([]int32{0, bad}); err == nil {
			t.Errorf("Select accepted lane %d of %d", bad, n)
		}
	}
	if sel, err := b.Select([]int32{0, n - 1}); err != nil || sel.Len() != 2 {
		t.Errorf("Select refused lane n-1: %v", err)
	}
}

// TestRunRecogniser: a run is a slice of the batch's own identity
// selection whose capacity reaches its end — nothing equal to one, cut
// shorter, or from another batch.
func TestRunRecogniser(t *testing.T) {
	b, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	other, err := FromRelation(hostileRel())
	if err != nil {
		t.Fatal(err)
	}
	all, n := b.identity(), b.Len()
	for _, lh := range [][2]int{{0, n}, {0, 1}, {3, 7}, {n - 1, n}, {5, n}} {
		lo, ok := b.run(all[lh[0]:lh[1]])
		if !ok || lo != lh[0] {
			t.Errorf("all[%d:%d]: run %v at %d", lh[0], lh[1], ok, lo)
		}
	}
	for name, sel := range map[string][]int32{
		"an equal copy":         append([]int32(nil), all[2:6]...),
		"a full copy":           append([]int32(nil), all...),
		"a capped all[2:6:6]":   all[2:6:6],
		"a capped all[0:1:1]":   all[0:1:1],
		"another batch's lanes": other.identity(),
		"an empty selection":    all[n:],
		"an empty run start":    all[3:3],
		"nil":                   nil,
	} {
		if _, ok := b.run(sel); ok {
			t.Errorf("%s was taken for a run", name)
		}
	}
	empty := &Batch{Schema: b.Schema, Cols: b.Cols}
	if _, ok := empty.run(all[:1]); ok {
		t.Error("a run of another batch on an empty batch")
	}
}

// TestGroupingViewConcurrentFirstBuild: workers race the first build of
// two views of one grouping, and every one gets the same view per column
// set over the same permuted columns — under -race, the check that the
// view memo is published safely.
func TestGroupingViewConcurrentFirstBuild(t *testing.T) {
	r := viewRel(rand.New(rand.NewSource(29)), 500)
	b, err := FromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Grouping([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{{0, 1}, {1, 3}}
	views := make([]*Batch, 16)
	var wg sync.WaitGroup
	for w := range views {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, err := g.View(sets[w%2])
			if err != nil {
				t.Error(err)
				return
			}
			views[w] = v
			// Read the view as a kernel would.
			if _, err := boxRows(v, sets[w%2], g.Find(r.Rows[w], []int{2})); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w, v := range views {
		if v != views[w%2] {
			t.Fatalf("worker %d got another view of column set %v", w, sets[w%2])
		}
	}
	if &views[0].Cols[1].Floats[0] != &views[1].Cols[1].Floats[0] {
		t.Fatal("the two views hold separate copies of their shared column")
	}
}

// BenchmarkGroupingView prices a clustered view: three columns of a
// 24 000-row TPCR partition permuted into its 200 CustGroup groups — paid
// once per load and key set, when the first query reads them.
func BenchmarkGroupingView(b *testing.B) {
	part, err := tpcr.GeneratePartition(tpcr.Config{Rows: 24000, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	src, err := FromRelation(part)
	if err != nil {
		b.Fatal(err)
	}
	var key []int
	var cols []int
	for _, name := range []string{"CustGroup", "Quantity", "Discount", "ExtendedPrice"} {
		ci, err := part.Schema.MustLookup(name)
		if err != nil {
			b.Fatal(err)
		}
		if key == nil {
			key = []int{ci}
		} else {
			cols = append(cols, ci)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh batch over the same columns: no memoized grouping.
		batch := &Batch{Schema: src.Schema, Cols: src.Cols, n: src.n}
		g, err := batch.Grouping(key)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.View(cols); err != nil {
			b.Fatal(err)
		}
	}
}
