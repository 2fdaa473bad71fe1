package skalla

import (
	"context"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/testutil"
	"repro/internal/tpcr"
	"repro/internal/value"
)

func TestTreeClusterEndToEnd(t *testing.T) {
	// Every relay and leaf connection keeps a server goroutine until the
	// cluster is closed.
	testutil.CheckGoroutines(t)
	tree, err := NewTreeCluster(TreeConfig{Leaves: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.NumSites() != 2 || tree.NumLeaves() != 4 {
		t.Fatalf("tree shape: %d relays, %d leaves", tree.NumSites(), tree.NumLeaves())
	}

	cfg := tpcr.Config{Rows: 3000, Customers: 60, Seed: 9}
	counts, err := tree.Generate("tpcr", "tpcr", tpcr.GenParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	whole := tpcr.Generate(cfg)
	if total != whole.Len() {
		t.Errorf("tree generated %d rows, want %d", total, whole.Len())
	}

	q, err := GroupBy([]string{"CustName"}, Aggs("count(*) AS n", "avg(F.Quantity) AS aq"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tree.Query(q, "tpcr", Options{GroupReduceSites: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Relation
	got.SortBy("CustName")
	want.SortBy("CustName")
	if got.Len() != want.Len() {
		t.Fatalf("rows %d vs %d", got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.K == value.KindFloat {
				gf, _ := g.AsFloat()
				wf, _ := w.AsFloat()
				if gf-wf > 1e-9 || wf-gf > 1e-9 {
					t.Errorf("row %d col %d: %v != %v", i, j, g, w)
				}
				continue
			}
			if !value.Equal(g, w) {
				t.Errorf("row %d col %d: %v != %v", i, j, g, w)
			}
		}
	}
}

// TestTreeClusterStatusSumsLeaves: a relay reports a relation's rows over
// its whole subtree, so Status counts what Generate made at each relay.
func TestTreeClusterStatusSumsLeaves(t *testing.T) {
	tree, err := NewTreeCluster(TreeConfig{Leaves: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	counts, err := tree.Generate("tpcr", "tpcr", tpcr.GenParams(tpcr.Config{Rows: 2000, Customers: 50, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range tree.Status("tpcr") {
		if !st.Reachable || st.Relations["tpcr"] != counts[i] {
			t.Errorf("%s: status %s, generated %d rows", st.ID, st, counts[i])
		}
	}
}

func TestTreeClusterLoadAddressesLeaves(t *testing.T) {
	tree, err := NewTreeCluster(TreeConfig{Leaves: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	parts, whole := flowParts(4)
	if err := tree.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	res, err := tree.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Len() != want.Len() {
		t.Errorf("tree result %d rows, want %d", res.Relation.Len(), want.Len())
	}
	// Wrong partition count fails against the leaf count, not the relay count.
	two, _ := flowParts(2)
	if err := tree.Load("flow", two); err == nil {
		t.Error("2 partitions for 4 leaves accepted")
	}
}

func TestTreeClusterErrors(t *testing.T) {
	if _, err := NewTreeCluster(TreeConfig{}); err == nil {
		t.Error("tree without leaves accepted")
	}
	// Fanout defaults and uneven division both work.
	tree, err := NewTreeCluster(TreeConfig{Leaves: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.NumSites() != 3 {
		t.Errorf("5 leaves / fanout 2 = %d relays, want 3", tree.NumSites())
	}
}

// TestTreeClusterServes: the query service runs over a tree cluster's
// relays and answers every statement as the tree itself does.
func TestTreeClusterServes(t *testing.T) {
	tree, err := NewTreeCluster(TreeConfig{Leaves: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	parts, _ := flowParts(4)
	if err := tree.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(tree, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if ok, why := svc.CheckReady(); !ok {
		t.Errorf("tree service not ready: %s", why)
	}
	for _, q := range serveQueries {
		want := serveBaseline(t, tree, q)
		got, err := svc.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		assertIdentical(t, q, got, want)
	}
}
