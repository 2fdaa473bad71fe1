package skalla

import (
	"math"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/value"
)

// cubeCluster loads a small, fully known dataset over 2 sites.
func cubeCluster(t *testing.T) (*Cluster, *relation.Relation) {
	t.Helper()
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	s := relation.MustSchema(
		relation.Column{Name: "Region", Kind: value.KindString},
		relation.Column{Name: "Product", Kind: value.KindString},
		relation.Column{Name: "Sales", Kind: value.KindInt},
	)
	data := []struct {
		r, p string
		s    int64
	}{
		{"east", "pen", 10}, {"east", "pen", 20}, {"east", "ink", 5},
		{"west", "pen", 7}, {"west", "ink", 3}, {"west", "ink", 9},
	}
	whole := relation.New(s)
	parts := []*relation.Relation{relation.New(s), relation.New(s)}
	for i, d := range data {
		row := relation.Row{value.NewString(d.r), value.NewString(d.p), value.NewInt(d.s)}
		whole.Rows = append(whole.Rows, row)
		parts[i%2].Rows = append(parts[i%2].Rows, row)
	}
	if err := cluster.Load("sales", parts); err != nil {
		t.Fatal(err)
	}
	return cluster, whole
}

func findCubeRow(rel *relation.Relation, region, product value.V) relation.Row {
	for _, row := range rel.Rows {
		rOK := row[0].IsNull() && region.IsNull() || value.Equal(row[0], region)
		pOK := row[1].IsNull() && product.IsNull() || value.Equal(row[1], product)
		if rOK && pOK {
			return row
		}
	}
	return nil
}

func TestCube(t *testing.T) {
	cluster, _ := cubeCluster(t)
	cube, err := Cube(cluster, "sales", []string{"Region", "Product"},
		Aggs("count(*) AS n", "sum(F.Sales) AS total", "avg(F.Sales) AS mean"),
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Cuboids: (R,P)=4 groups, (R)=2, (P)=2, ()=1 → 9 rows.
	if cube.Len() != 9 {
		t.Fatalf("cube rows = %d, want 9\n%s", cube.Len(), cube)
	}
	checks := []struct {
		region, product value.V
		n, total        int64
		mean            float64
	}{
		{value.NewString("east"), value.NewString("pen"), 2, 30, 15},
		{value.NewString("west"), value.NewString("ink"), 2, 12, 6},
		{value.NewString("east"), CubeAll, 3, 35, 35.0 / 3},
		{CubeAll, value.NewString("ink"), 3, 17, 17.0 / 3},
		{CubeAll, CubeAll, 6, 54, 9},
	}
	for _, c := range checks {
		row := findCubeRow(cube, c.region, c.product)
		if row == nil {
			t.Errorf("cuboid row (%v, %v) missing", c.region, c.product)
			continue
		}
		n, _ := row[2].AsInt()
		total, _ := row[3].AsInt()
		mean, _ := row[4].AsFloat()
		if n != c.n || total != c.total || math.Abs(mean-c.mean) > 1e-9 {
			t.Errorf("cuboid (%v, %v) = (n=%d, total=%d, mean=%v), want (%d, %d, %v)",
				c.region, c.product, n, total, mean, c.n, c.total, c.mean)
		}
	}
}

func TestCubeVariance(t *testing.T) {
	cluster, whole := cubeCluster(t)
	cube, err := Cube(cluster, "sales", []string{"Region"},
		Aggs("var(F.Sales) AS v", "min(F.Sales) AS lo", "max(F.Sales) AS hi"),
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Grand-total variance must match a direct computation.
	var sum, sumsq float64
	for _, row := range whole.Rows {
		f, _ := row[2].AsFloat()
		sum += f
		sumsq += f * f
	}
	n := float64(whole.Len())
	wantVar := sumsq/n - (sum/n)*(sum/n)
	var row relation.Row
	for _, r := range cube.Rows {
		if r[0].IsNull() {
			row = r
			break
		}
	}
	if row == nil {
		t.Fatal("grand total row missing")
	}
	v, _ := row[1].AsFloat()
	if math.Abs(v-wantVar) > 1e-9 {
		t.Errorf("cube var = %v, want %v", v, wantVar)
	}
	lo, _ := row[2].AsInt()
	hi, _ := row[3].AsInt()
	if lo != 3 || hi != 20 {
		t.Errorf("cube min/max = %d/%d, want 3/20", lo, hi)
	}
}

func TestCubeMatchesPerCuboidQueries(t *testing.T) {
	cluster, whole := cubeCluster(t)
	cube, err := Cube(cluster, "sales", []string{"Region", "Product"},
		Aggs("count(*) AS n", "avg(F.Sales) AS mean"), AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-ALL cuboid must equal the direct GROUP BY on that subset.
	for _, dims := range [][]string{{"Region"}, {"Product"}, {"Region", "Product"}} {
		q, err := GroupBy(dims, Aggs("count(*) AS n", "avg(F.Sales) AS mean"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrow := range want.Rows {
			region, product := value.Null, value.Null
			for i, d := range dims {
				if d == "Region" {
					region = wrow[i]
				} else {
					product = wrow[i]
				}
			}
			got := findCubeRow(cube, region, product)
			if got == nil {
				t.Fatalf("cuboid row (%v,%v) missing", region, product)
			}
			wn, _ := wrow[len(dims)].AsInt()
			gn, _ := got[2].AsInt()
			wm, _ := wrow[len(dims)+1].AsFloat()
			gm, _ := got[3].AsFloat()
			if gn != wn || math.Abs(gm-wm) > 1e-9 {
				t.Errorf("cuboid (%v,%v): (%d,%v) want (%d,%v)", region, product, gn, gm, wn, wm)
			}
		}
	}
}

func TestCubeErrors(t *testing.T) {
	cluster, _ := cubeCluster(t)
	if _, err := Cube(cluster, "sales", nil, Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("cube without dimensions accepted")
	}
	if _, err := Cube(cluster, "sales", []string{"Region"}, Aggs("countd(F.Sales) AS u"), NoOptimizations); err == nil {
		t.Error("cube with countd accepted")
	}
	if _, err := Cube(cluster, "sales", []string{"Nope"}, Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("cube with unknown dimension accepted")
	}
	many := make([]string, 13)
	for i := range many {
		many[i] = "Region"
	}
	if _, err := Cube(cluster, "sales", many, Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("13-dimension cube accepted")
	}
}

func TestUnpivot(t *testing.T) {
	s := relation.MustSchema(
		relation.Column{Name: "Hour", Kind: value.KindInt},
		relation.Column{Name: "web", Kind: value.KindInt},
		relation.Column{Name: "mail", Kind: value.KindInt},
	)
	rel := relation.New(s)
	rel.MustAppend(value.NewInt(0), value.NewInt(10), value.NewInt(2))
	rel.MustAppend(value.NewInt(1), value.NewInt(20), value.NewInt(4))

	out, err := Unpivot(rel, []string{"Hour"}, []string{"web", "mail"}, "kind", "flows")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("unpivot rows = %d, want 4", out.Len())
	}
	if out.Rows[0][1].S != "web" || out.Rows[0][2].Int() != 10 {
		t.Errorf("row 0 = %v", out.Rows[0])
	}
	if out.Rows[1][1].S != "mail" || out.Rows[1][2].Int() != 2 {
		t.Errorf("row 1 = %v", out.Rows[1])
	}
	if _, err := Unpivot(rel, []string{"Hour"}, nil, "k", "v"); err == nil {
		t.Error("unpivot without value columns accepted")
	}
	if _, err := Unpivot(rel, []string{"Nope"}, []string{"web"}, "k", "v"); err == nil {
		t.Error("unpivot with bad key accepted")
	}
}

// TestMultiFeatureQuery expresses a multi-feature query [Ross et al.]:
// per region, the count of rows whose sales equal the region maximum.
func TestMultiFeatureQuery(t *testing.T) {
	cluster, whole := cubeCluster(t)
	q := NewQuery("Region").
		MD(Aggs("max(F.Sales) AS mx"), "F.Region = B.Region").
		MD(Aggs("count(*) AS at_max"), "F.Region = B.Region AND F.Sales = B.mx").
		MustBuild()
	res, err := cluster.Query(q, "sales", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	res.Relation.SortBy("Region")
	want.SortBy("Region")
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !value.Equal(res.Relation.Rows[i][j], want.Rows[i][j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, res.Relation.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func TestRollup(t *testing.T) {
	cluster, _ := cubeCluster(t)
	r, err := Rollup(cluster, "sales", []string{"Region", "Product"},
		Aggs("count(*) AS n", "sum(F.Sales) AS total"), AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Sets: (R,P)=4 rows, (R)=2, ()=1 → 7 rows; no (Product)-only set.
	if r.Len() != 7 {
		t.Fatalf("rollup rows = %d, want 7\n%s", r.Len(), r)
	}
	for _, row := range r.Rows {
		if row[0].IsNull() && !row[1].IsNull() {
			t.Errorf("rollup produced a product-only set: %v", row)
		}
	}
	// Region subtotals present.
	east := findCubeRow(r, value.NewString("east"), CubeAll)
	if east == nil || east[2].Int() != 3 {
		t.Errorf("east subtotal: %v", east)
	}
}

func TestGroupingSets(t *testing.T) {
	cluster, whole := cubeCluster(t)
	gs, err := GroupingSets(cluster, "sales", []string{"Region", "Product"},
		[][]string{{"Product"}, {}},
		Aggs("sum(F.Sales) AS total"), AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// (Product)=2 rows + grand total = 3.
	if gs.Len() != 3 {
		t.Fatalf("grouping sets rows = %d, want 3\n%s", gs.Len(), gs)
	}
	var grand int64
	for _, row := range whole.Rows {
		grand += row[2].Int()
	}
	total := findCubeRow(gs, CubeAll, CubeAll)
	if total == nil {
		t.Fatal("grand total missing")
	}
	if got, _ := total[2].AsInt(); got != grand {
		t.Errorf("grand total = %d, want %d", got, grand)
	}
	// Errors.
	if _, err := GroupingSets(cluster, "sales", []string{"Region"}, [][]string{{"Nope"}},
		Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("unknown set column accepted")
	}
	if _, err := GroupingSets(cluster, "sales", nil, nil, Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("empty sets accepted")
	}
	if _, err := Rollup(cluster, "sales", nil, Aggs("count(*) AS n"), NoOptimizations); err == nil {
		t.Error("rollup without dims accepted")
	}
}
