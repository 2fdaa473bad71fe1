package skalla

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/relation"
	sqlfe "repro/internal/sql"
	"repro/internal/tpcr"
	"repro/internal/value"
)

func example1() Query {
	return NewQuery("SourceAS", "DestAS").
		MD(Aggs("count(*) AS cnt1", "sum(F.NumBytes) AS sum1"),
			"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS").
		MD(Aggs("count(*) AS cnt2"),
			"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS AND F.NumBytes >= B.sum1 / B.cnt1").
		MustBuild()
}

func flowParts(nSites int) ([]*relation.Relation, *relation.Relation) {
	s := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
	whole := relation.New(s)
	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(s)
	}
	data := [][3]int64{
		{1, 10, 100}, {1, 10, 300}, {2, 10, 50}, {1, 20, 500}, {3, 30, 250}, {2, 10, 150},
	}
	for i, d := range data {
		row := relation.Row{value.NewInt(d[0]), value.NewInt(d[1]), value.NewInt(d[2])}
		whole.Rows = append(whole.Rows, row)
		parts[i%nSites].Rows = append(parts[i%nSites].Rows, row)
	}
	return parts, whole
}

func TestLocalClusterEndToEnd(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		cluster, err := NewLocalCluster(ClusterConfig{Sites: 3, UseTCP: useTCP})
		if err != nil {
			t.Fatal(err)
		}
		parts, whole := flowParts(3)
		if err := cluster.Load("flow", parts); err != nil {
			t.Fatal(err)
		}
		want, err := gmdj.EvalQuery(whole, example1())
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Query(example1(), "flow", AllOptimizations)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Relation
		got.SortBy("SourceAS", "DestAS")
		want.SortBy("SourceAS", "DestAS")
		if got.Len() != want.Len() {
			t.Fatalf("tcp=%v: %d rows, want %d", useTCP, got.Len(), want.Len())
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if !value.Equal(got.Rows[i][j], want.Rows[i][j]) &&
					!(got.Rows[i][j].IsNull() && want.Rows[i][j].IsNull()) {
					t.Errorf("tcp=%v row %d col %d: %v != %v", useTCP, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
		if res.Stats.Bytes() <= 0 {
			t.Error("no traffic accounted")
		}
		if err := cluster.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}
}

// TestCancelledCallRedials: a query cancelled while a site is handling its
// call breaks that connection, and the next query on the same cluster
// redials instead of failing on the broken stream — in process and over
// loopback TCP alike.
func TestCancelledCallRedials(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, UseTCP: useTCP})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		parts, _ := flowParts(2)
		if err := cluster.Load("flow", parts); err != nil {
			t.Fatal(err)
		}
		entered, release := holdNext(cluster.engines[0])
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := cluster.QueryContext(ctx, example1(), "flow", NoOptimizations)
			done <- err
		}()
		<-entered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("tcp=%v: cancelled query returned %v, want context.Canceled", useTCP, err)
		}
		release()
		if _, err := cluster.Query(example1(), "flow", NoOptimizations); err != nil {
			t.Errorf("tcp=%v: query after a cancelled call: %v", useTCP, err)
		}
	}
}

func TestGenerateAndQueryTPCR(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cfg := tpcr.Config{Rows: 4000, Customers: 50, Seed: 3}
	counts, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	whole := tpcr.Generate(cfg)
	if total != whole.Len() {
		t.Errorf("generated %d rows across sites, want %d", total, whole.Len())
	}
	if err := tpcr.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
		t.Fatal(err)
	}

	q, err := GroupBy([]string{"CustName"}, Aggs("count(*) AS orders", "avg(F.ExtendedPrice) AS avg_price"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Query(q, "tpcr", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != want.Len() {
		t.Errorf("distributed %d groups, centralized %d", res.Relation.Len(), want.Len())
	}
	// CustName is a partition attribute: sync reduction should make this
	// a single round.
	if res.Plan.Rounds() != 1 {
		t.Errorf("expected single round, got %d\n%s", res.Plan.Rounds(), res.Plan.Explain())
	}
}

func TestSubset(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(4)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	sub, err := cluster.Subset(2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumSites() != 2 {
		t.Errorf("subset sites = %d", sub.NumSites())
	}
	// The subset sees only 2 sites' data.
	res, err := sub.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() == 0 {
		t.Error("subset query returned nothing")
	}
	if _, err := cluster.Subset(0); err == nil {
		t.Error("subset(0) accepted")
	}
	if _, err := cluster.Subset(9); err == nil {
		t.Error("oversized subset accepted")
	}
}

func TestExplain(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	plan, err := cluster.Explain(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "3 round(s)") {
		t.Errorf("explain:\n%s", plan.Explain())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewQuery("a").Build(); err == nil {
		t.Error("query without MDs accepted")
	}
	if _, err := NewQuery("a").MD(Aggs("count(*) AS c"), "((").Build(); err == nil {
		t.Error("bad condition accepted")
	}
	if _, err := NewQuery("a").Where("((").MD(Aggs("count(*) AS c"), "TRUE").Build(); err == nil {
		t.Error("bad filter accepted")
	}
	if _, err := NewQuery("a").MDMulti([]AggList{Aggs("count(*) AS c")}, []string{"TRUE", "TRUE"}).Build(); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := GroupBy(nil, Aggs("count(*) AS c")); err == nil {
		t.Error("GroupBy without columns accepted")
	}
	// Error sticks through later calls.
	b := NewQuery("a").MD(Aggs("count(*) AS c"), "((").MD(Aggs("count(*) AS d"), "TRUE")
	if _, err := b.Build(); err == nil {
		t.Error("accumulated error lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	NewQuery("a").MustBuild()
}

func TestLoadErrors(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(3)
	if err := cluster.Load("flow", parts); err == nil {
		t.Error("partition count mismatch accepted")
	}
	if _, err := cluster.Generate("x", "nope", nil); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := Connect(nil, CostModel{}); err == nil {
		t.Error("Connect with no addresses accepted")
	}
}

func TestWhereAndGroupBy(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, whole := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("SourceAS").Where("F.NumBytes >= 200").
		MD(Aggs("count(*) AS c"), "F.SourceAS = B.SourceAS").MustBuild()
	res, err := cluster.Query(q, "flow", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != want.Len() {
		t.Errorf("filtered base: %d groups, want %d", res.Relation.Len(), want.Len())
	}
}

// TestConditionalAggregation exercises CASE expressions as aggregate
// arguments across the distributed pipeline — the classic "pivot by
// condition" OLAP idiom.
func TestConditionalAggregation(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, whole := flowParts(3)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("SourceAS").
		MD(Aggs(
			"sum(CASE WHEN F.DestAS = 10 THEN F.NumBytes ELSE 0 END) AS to10",
			"sum(CASE WHEN F.DestAS != 10 THEN F.NumBytes ELSE 0 END) AS other",
			"max(abs(F.NumBytes - 200)) AS spread",
		), "F.SourceAS = B.SourceAS").
		MustBuild()
	res, err := cluster.Query(q, "flow", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	res.Relation.SortBy("SourceAS")
	want.SortBy("SourceAS")
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !value.Equal(res.Relation.Rows[i][j], want.Rows[i][j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, res.Relation.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	// Sanity: to10 + other accounts for all bytes of AS 1.
	var all, got int64
	for _, row := range whole.Rows {
		if row[0].Int() == 1 {
			all += row[2].Int()
		}
	}
	for _, row := range res.Relation.Rows {
		if row[0].Int() == 1 {
			a, _ := row[1].AsInt()
			b, _ := row[2].AsInt()
			got = a + b
		}
	}
	if all != got {
		t.Errorf("conditional split lost bytes: %d != %d", got, all)
	}
}

// TestConditionalAggregationVectorized: the return-rate query of
// examples/sql — sum over a CASE, the most common OLAP idiom there is —
// runs on the columnar kernels at every site (each site's profile reports
// kernel batches, not just "engine vector") and is byte-equal to the
// centralized row reference on the union of the partitions.
func TestConditionalAggregationVectorized(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cfg := tpcr.Config{Rows: 6000, Customers: 60, Seed: 5}
	if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(cfg)); err != nil {
		t.Fatal(err)
	}
	if err := tpcr.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
		t.Fatal(err)
	}
	st, err := sqlfe.Parse(`SELECT RegionKey,
	        count(*) AS lines,
	        sum(CASE WHEN ReturnFlag = 'R' THEN 1 ELSE 0 END) AS returns
	 FROM tpcr GROUP BY RegionKey`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	cluster.Coordinator().QueryID = "q-return-rate"
	res, err := cluster.Query(q, st.Detail, AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	batches := map[string]int64{}
	for _, r := range res.Stats.Rounds {
		for _, sr := range r.Sites {
			if sr.Remote == nil {
				t.Fatalf("round %s: site %s sent no profile", r.Name, sr.Site)
			}
			batches[sr.Site] += sr.Remote.VecBatches
		}
	}
	for _, id := range cluster.SiteIDs() {
		if batches[id] == 0 {
			t.Errorf("site %s evaluated the CASE aggregate off the kernels: VecBatches = 0", id)
		}
	}
	want, err := gmdj.EvalQuery(tpcr.Generate(cfg), q)
	if err != nil {
		t.Fatal(err)
	}
	res.Relation.SortBy("RegionKey")
	want.SortBy("RegionKey")
	if !reflect.DeepEqual(res.Relation.Rows, want.Rows) {
		t.Errorf("distributed result differs from gmdj.EvalQuery on the union:\n%s\nwant\n%s",
			res.Relation.Format(10), want.Format(10))
	}
}

func TestPreparedQuery(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, whole := flowParts(3)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	p, err := cluster.Prepare(example1(), "flow", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	// Executing twice reuses the plan and keeps producing correct results.
	for run := 0; run < 2; run++ {
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if res.Relation.Len() != want.Len() {
			t.Errorf("run %d: %d rows, want %d", run, res.Relation.Len(), want.Len())
		}
		if res.Plan != p.Plan() {
			t.Error("plan not reused")
		}
	}
	// Prepare fails cleanly on unknown relations.
	if _, err := cluster.Prepare(example1(), "nosuch", NoOptimizations); err == nil {
		t.Error("prepare against missing relation accepted")
	}
}

func TestStatus(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	sts := cluster.Status("flow", "missing")
	if len(sts) != 2 {
		t.Fatalf("status entries = %d", len(sts))
	}
	for _, st := range sts {
		if !st.Reachable {
			t.Errorf("%s unreachable: %s", st.ID, st.Err)
		}
		if _, ok := st.Relations["flow"]; !ok {
			t.Errorf("%s missing flow row count", st.ID)
		}
		if _, ok := st.Relations["missing"]; ok {
			t.Errorf("%s reported a count for a missing relation", st.ID)
		}
		if !strings.Contains(st.String(), "ok") {
			t.Errorf("status string: %s", st)
		}
	}
}

// TestConcurrentQueriesShareCluster: parallel queries on one cluster —
// sharing its pooled site clients — all produce the centralized result,
// and each accounts communication under the cluster's cost model.
func TestConcurrentQueriesShareCluster(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3, Cost: DefaultWAN})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, whole := flowParts(3)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 5
	results := make(chan *Result, workers*perWorker)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < perWorker; i++ {
				res, err := cluster.Query(example1(), "flow", AllOptimizations)
				if err != nil {
					errs <- err
					return
				}
				results <- res
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(results)
	for res := range results {
		assertSameResult(t, "concurrent query", res.Relation, want.Clone())
		for _, r := range res.Stats.Rounds {
			if r.CommTime <= 0 {
				t.Errorf("round %s: CommTime = %v under DefaultWAN", r.Name, r.CommTime)
			}
		}
	}
}

// TestExactDistinctDistributed: exact COUNT DISTINCT merges correctly
// across sites (duplicates spanning partitions collapse).
func TestExactDistinctDistributed(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, whole := flowParts(3)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("SourceAS").
		MD(Aggs("countdx(F.DestAS) AS dests"), "F.SourceAS = B.SourceAS").
		MustBuild()
	res, err := cluster.Query(q, "flow", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: distinct DestAS per SourceAS over the whole relation.
	want := map[int64]map[int64]bool{}
	for _, row := range whole.Rows {
		m, ok := want[row[0].Int()]
		if !ok {
			m = map[int64]bool{}
			want[row[0].Int()] = m
		}
		m[row[1].Int()] = true
	}
	for _, row := range res.Relation.Rows {
		if got := row[1].Int(); got != int64(len(want[row[0].Int()])) {
			t.Errorf("SourceAS %d: %d distinct dests, want %d", row[0].Int(), got, len(want[row[0].Int()]))
		}
	}
}
