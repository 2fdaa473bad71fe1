package skalla

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	sqlfe "repro/internal/sql"
	"repro/internal/tpcr"
	"repro/internal/value"
)

func TestSQLGroupBy(t *testing.T) {
	cluster, whole := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, count(*) AS n, sum(Sales) AS total FROM sales GROUP BY Region",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	q, err := GroupBy([]string{"Region"}, Aggs("count(*) AS n", "sum(Sales) AS total"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got.SortBy("Region")
	want.SortBy("Region")
	if got.Len() != want.Len() {
		t.Fatalf("rows %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !value.Equal(got.Rows[i][j], want.Rows[i][j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func TestSQLWhereAndHaving(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, count(*) AS n FROM sales WHERE Product = 'pen' GROUP BY Region HAVING n >= 2",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Pens: east 2 (10, 20), west 1 (7) → only east survives HAVING.
	if got.Len() != 1 || got.Rows[0][0].S != "east" || got.Rows[0][1].Int() != 2 {
		t.Errorf("result:\n%s", got)
	}
}

func TestSQLSelectOrderAndProjection(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT max(Sales) AS hi, Region FROM sales GROUP BY Region",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Column order follows the select list.
	if got.Schema.Cols[0].Name != "hi" || got.Schema.Cols[1].Name != "Region" {
		t.Errorf("schema: %s", got.Schema)
	}
}

func TestSQLDistinct(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL("SELECT Region, Product FROM sales GROUP BY Region, Product", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 || got.Schema.Len() != 2 {
		t.Errorf("distinct projection:\n%s", got)
	}
}

func TestSQLCube(t *testing.T) {
	cluster, whole := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, Product, avg(Sales) AS mean FROM sales CUBE BY Region, Product",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 9 {
		t.Fatalf("cube rows = %d, want 9", got.Len())
	}
	// Grand total mean equals the direct mean.
	var sum float64
	for _, row := range whole.Rows {
		f, _ := row[2].AsFloat()
		sum += f
	}
	wantMean := sum / float64(whole.Len())
	found := false
	for _, row := range got.Rows {
		if row[0].IsNull() && row[1].IsNull() {
			found = true
			if m, _ := row[2].AsFloat(); math.Abs(m-wantMean) > 1e-9 {
				t.Errorf("grand mean %v, want %v", m, wantMean)
			}
		}
	}
	if !found {
		t.Error("grand total row missing")
	}
}

func TestSQLErrors(t *testing.T) {
	cluster, _ := cubeCluster(t)
	bad := []string{
		"SELECT oops FROM sales GROUP BY Region",              // parse-time
		"SELECT Region, count(*) FROM nosuch GROUP BY Region", // unknown relation
		"SELECT Region, sum(Nope) FROM sales GROUP BY Region", // unknown column
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region HAVING bogus > 1",
	}
	for _, q := range bad {
		if _, err := cluster.SQL(q, NoOptimizations); err == nil {
			t.Errorf("SQL(%q) should fail", q)
		}
	}
}

func TestSQLRollup(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, Product, sum(Sales) AS total FROM sales ROLLUP BY Region, Product",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Prefixes of (Region, Product): 4 + 2 + 1 = 7 rows.
	if got.Len() != 7 {
		t.Fatalf("rollup rows = %d, want 7\n%s", got.Len(), got)
	}
	// Grand total = 54.
	found := false
	for _, row := range got.Rows {
		if row[0].IsNull() && row[1].IsNull() {
			found = true
			if v, _ := row[2].AsInt(); v != 54 {
				t.Errorf("grand total = %d, want 54", v)
			}
		}
	}
	if !found {
		t.Error("grand total row missing")
	}
}

// TestSQLCubeWithWhere: the WHERE filter must restrict the cube's detail
// rows and groups (regression: the cube path once dropped WHERE).
func TestSQLCubeWithWhere(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, sum(Sales) AS total FROM sales WHERE Product = 'pen' CUBE BY Region",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Pens only: east 30, west 7, total 37; cube = 2 region rows + ALL.
	if got.Len() != 3 {
		t.Fatalf("rows = %d, want 3\n%s", got.Len(), got)
	}
	for _, row := range got.Rows {
		v, _ := row[1].AsInt()
		switch {
		case row[0].IsNull() && v != 37:
			t.Errorf("ALL total = %d, want 37", v)
		case !row[0].IsNull() && row[0].S == "east" && v != 30:
			t.Errorf("east = %d, want 30", v)
		case !row[0].IsNull() && row[0].S == "west" && v != 7:
			t.Errorf("west = %d, want 7", v)
		}
	}
}

func TestSQLOrderByAndLimit(t *testing.T) {
	cluster, _ := cubeCluster(t)
	got, err := cluster.SQL(
		"SELECT Region, Product, sum(Sales) AS total FROM sales GROUP BY Region, Product ORDER BY total DESC, Region LIMIT 2",
		AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("limit: %d rows\n%s", got.Len(), got)
	}
	// Totals: east/pen 30, west/ink 12, east/ink 5, west/pen 7.
	if v, _ := got.Rows[0][2].AsInt(); v != 30 {
		t.Errorf("first row total = %d, want 30", v)
	}
	if v, _ := got.Rows[1][2].AsInt(); v != 12 {
		t.Errorf("second row total = %d, want 12", v)
	}
	// ASC keyword and mixed directions parse.
	if _, err := cluster.SQL(
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY n ASC, Region DESC",
		NoOptimizations); err != nil {
		t.Fatal(err)
	}
	// Errors.
	for _, q := range []string{
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY",
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY n sideways",
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region LIMIT 0",
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region LIMIT x",
		"SELECT Region, count(*) AS n FROM sales GROUP BY Region ORDER BY nope",
	} {
		if _, err := cluster.SQL(q, NoOptimizations); err == nil {
			t.Errorf("SQL(%q) should fail", q)
		}
	}
}

// TestSQLCubeRefusesOversizedCube: CUBE BY shares Cube's grouping-set
// builder, refusal included, so a 13-dimension cube (2^13 grouping sets) is
// refused through SQL and over HTTP before any site is called.
func TestSQLCubeRefusesOversizedCube(t *testing.T) {
	o := obs.New()
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, Settings: Settings{Obs: o}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(tpcr.Config{Rows: 200, Customers: 10, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stmt := "SELECT count(*) AS n FROM tpcr CUBE BY OrderKey, LineNumber, CustKey, CustName, CustGroup, " +
		"NationKey, RegionKey, MktSegment, PartKey, SuppKey, Quantity, ShipDate, OrderDate"
	sent := o.Metrics.CounterValue("transport.messages")

	_, err = cluster.SQL(stmt, NoOptimizations)
	var pe *sqlfe.ParseError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "2^13 cuboids") {
		t.Errorf("SQL = %v, want the 13-dimension refusal", err)
	}
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(stmt), nil))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "2^13 cuboids") {
		t.Errorf("HTTP = %d %s, want 400 and the refusal", w.Code, w.Body.String())
	}
	if n := o.Metrics.CounterValue("transport.messages"); n != sent {
		t.Errorf("%d site call(s) made for a refused cube", n-sent)
	}
}

// TestSQLNamesCheckedAtParse: an ORDER BY key outside the select list and a
// HAVING column that is neither a grouping column nor an aggregate are
// parse errors, so the service answers 400 "parse" before any query runs.
func TestSQLNamesCheckedAtParse(t *testing.T) {
	o := obs.New()
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, Settings: Settings{Obs: o}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(tpcr.Config{Rows: 200, Customers: 10, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, stmt := range []string{
		"SELECT CustName, count(*) AS n FROM tpcr GROUP BY CustName ORDER BY zzz",
		"SELECT CustName, count(*) AS n FROM tpcr GROUP BY CustName HAVING zzz > 1",
		"SELECT CustName, count(*) AS n FROM tpcr GROUP BY CustName HAVING F.n > 1",
		"SELECT RegionKey, count(*) AS n FROM tpcr CUBE BY RegionKey ORDER BY CustName",
	} {
		queries := o.Metrics.CounterValue("coord.queries")
		w := httptest.NewRecorder()
		svc.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(stmt), nil))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"parse"`) {
			t.Errorf("%s: HTTP %d %s, want 400 parse", stmt, w.Code, w.Body.String())
		}
		if n := o.Metrics.CounterValue("coord.queries"); n != queries {
			t.Errorf("%s: %d queries ran", stmt, n-queries)
		}
	}
}

// TestSQLSumOverflowFailsAtRoot: each site's integer sum fits in int64 but
// their total does not, so the query fails where the sites' states merge,
// at the root, instead of answering a wrapped total. The converse answers:
// a site whose own total passes 2^63 ships it exactly, and the root's
// total, which fits, is the answer, whichever site holds which values.
func TestSQLSumOverflowFailsAtRoot(t *testing.T) {
	s := relation.MustSchema(relation.Column{Name: "k", Kind: value.KindInt}, relation.Column{Name: "v", Kind: value.KindInt})
	load := func(sites ...[]int64) *Cluster {
		parts := make([]*relation.Relation, len(sites))
		for i, vals := range sites {
			parts[i] = relation.New(s)
			for _, v := range vals {
				parts[i].MustAppend(value.NewInt(1), value.NewInt(v))
			}
		}
		cluster, err := NewLocalCluster(ClusterConfig{Sites: len(sites)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cluster.Close() })
		if err := cluster.Load("t", parts); err != nil {
			t.Fatal(err)
		}
		return cluster
	}
	const query = "SELECT k, sum(v) AS s FROM t GROUP BY k"
	over := load([]int64{math.MaxInt64}, []int64{1})
	fits := [][][]int64{{{math.MaxInt64, 1}, {-1}}, {{-1}, {1, math.MaxInt64}}}
	for _, opts := range []Options{NoOptimizations, AllOptimizations} {
		res, err := over.SQL(query, opts)
		if err == nil || !strings.Contains(err.Error(), "agg: integer sum overflows int64") {
			t.Errorf("%+v: a sum past 2^63 answered %v, %v; want the overflow", opts, res, err)
		}
		for _, sites := range fits {
			res, err := load(sites...).SQL(query, opts)
			if err != nil || res.Len() != 1 || res.Rows[0][1] != value.NewInt(math.MaxInt64) {
				t.Errorf("%+v: sum over sites %v = %v, %v; want MaxInt64", opts, sites, res, err)
			}
		}
	}
}
