package skalla

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/testutil"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

func TestTreeClusterEndToEnd(t *testing.T) {
	// Every relay and leaf connection keeps a server goroutine until the
	// cluster is closed.
	testutil.CheckGoroutines(t)
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2})
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
	// Each leaf holds its own partition: the leaves' line keys are
	// disjoint and together are the whole dataset's.
	if len(counts) != 4 {
		t.Fatalf("Generate returned %d counts for 4 leaves", len(counts))
	}
	key := func(row []value.V) [2]int64 { return [2]int64{row[0].Int(), row[1].Int()} }
	held := map[[2]int64]string{}
	for i, eng := range tree.leaves.engines {
		resp := eng.Handle(context.Background(), &transport.Request{
			Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"OrderKey", "LineNumber"}})
		if err := resp.Error(); err != nil {
			t.Fatal(err)
		}
		f, err := resp.Frame()
		if err != nil {
			t.Fatal(err)
		}
		lines := f.Relation()
		if lines.Len() != counts[i] {
			t.Errorf("%s holds %d distinct lines, generated %d", eng.ID(), lines.Len(), counts[i])
		}
		for _, row := range lines.Rows {
			if prev, dup := held[key(row)]; dup {
				t.Fatalf("line %v at both %s and %s", key(row), prev, eng.ID())
			}
			held[key(row)] = eng.ID()
		}
	}
	for _, row := range whole.Rows {
		if _, ok := held[key(row)]; !ok {
			t.Fatalf("line %v of the dataset is at no leaf", key(row))
		}
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
// its whole subtree, so Status counts what Generate made at its leaves.
func TestTreeClusterStatusSumsLeaves(t *testing.T) {
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	counts, err := tree.Generate("tpcr", "tpcr", tpcr.GenParams(tpcr.Config{Rows: 2000, Customers: 50, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range tree.Status("tpcr") {
		if n := counts[2*i] + counts[2*i+1]; !st.Reachable || st.Relations["tpcr"] != n {
			t.Errorf("%s: status %s, generated %d rows", st.ID, st, n)
		}
	}
}

func TestTreeClusterLoadAddressesLeaves(t *testing.T) {
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2})
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
	if _, err := NewLocalCluster(ClusterConfig{Sites: -1, Fanout: 2}); err == nil {
		t.Error("tree without leaves accepted")
	}
	if _, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: -1}); err == nil {
		t.Error("negative fanout accepted")
	}
	// Uneven division works: the last relay takes the rest.
	tree, err := NewLocalCluster(ClusterConfig{Sites: 5, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.NumSites() != 3 || tree.NumLeaves() != 5 {
		t.Errorf("5 leaves / fanout 2 = %d relays over %d leaves, want 3 over 5", tree.NumSites(), tree.NumLeaves())
	}
}

// TestTreeClusterServes: the query service runs over a tree cluster's
// relays and answers every statement as the tree itself does.
func TestTreeClusterServes(t *testing.T) {
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2})
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

// TestTreeClusterLimitsRefuse: the leaves run under the cluster's Limits,
// and a leaf's refusal reaches the caller through its relay as
// ErrOverloaded, not as a plain site error.
func TestTreeClusterLimitsRefuse(t *testing.T) {
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2, Limits: Limits{MaxResultRows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	parts, _ := flowParts(4)
	if err := tree.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Query(example1(), "flow", NoOptimizations); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("query over limited leaves: err = %v, want ErrOverloaded", err)
	}
}

// TestTreeClusterTracesLeafCalls: with an obs sink, the relays publish
// their calls to the leaves: an rpc span on every leaf's track, beside the
// root's rpc spans on the relays' tracks.
func TestTreeClusterTracesLeafCalls(t *testing.T) {
	o := obs.New()
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2, Settings: Settings{Obs: o}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	parts, _ := flowParts(4)
	if err := tree.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Query(example1(), "flow", NoOptimizations); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]string{}
	rpcs := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Tid] = e.Args["name"]
		}
	}
	for _, e := range trace.TraceEvents {
		if strings.HasPrefix(e.Name, "rpc:") {
			rpcs[tracks[e.Tid]] = true
		}
	}
	for _, id := range []string{"leaf0", "leaf1", "leaf2", "leaf3", "relay0", "relay1"} {
		if !rpcs[obs.SiteTrack(id)] {
			t.Errorf("no rpc span on %s's track; rpc tracks %v", id, rpcs)
		}
	}
}

// TestTreeClusterPartial: under AllowPartial a relay whose leaf fails is
// lost as a whole, and the query answers from the other relay's leaves.
func TestTreeClusterPartial(t *testing.T) {
	tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2, Settings: Settings{AllowPartial: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	parts, _ := flowParts(4)
	if err := tree.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	// leaf0's partition, reloaded ill-typed, is stored as a refusal that
	// every request naming it returns.
	bad := parts[0].Clone()
	bad.Rows[0][2] = value.NewString("ill-typed")
	tree.leaves.engines[0].Load("flow", bad)
	res, err := tree.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Stats.LostSites(); !reflect.DeepEqual(lost, []string{"relay0"}) {
		t.Errorf("LostSites = %v, want [relay0]", lost)
	}
	survivors := relation.New(parts[2].Schema)
	survivors.Rows = append(append(survivors.Rows, parts[2].Rows...), parts[3].Rows...)
	want, err := gmdj.EvalQuery(survivors, example1())
	if err != nil {
		t.Fatal(err)
	}
	sortAll(t, want)
	sortAll(t, res.Relation)
	assertIdentical(t, "relay1 alone", res.Relation, want)
}

// TestTreeClusterOverTCP: a tree whose leaves and relays serve over
// loopback TCP answers byte for byte as the in-process tree does.
func TestTreeClusterOverTCP(t *testing.T) {
	cfg := tpcr.Config{Rows: 2000, Customers: 50, Seed: 4}
	q, err := GroupBy([]string{"CustName"}, Aggs("count(*) AS n", "avg(F.Quantity) AS aq"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, useTCP := range []bool{false, true} {
		tree, err := NewLocalCluster(ClusterConfig{Sites: 4, Fanout: 2, UseTCP: useTCP})
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		if _, err := tree.Generate("tpcr", "tpcr", tpcr.GenParams(cfg)); err != nil {
			t.Fatal(err)
		}
		res, err := tree.Query(q, "tpcr", NoOptimizations)
		if err != nil {
			t.Fatalf("useTCP=%v: %v", useTCP, err)
		}
		sortAll(t, res.Relation)
		frames = append(frames, relation.AppendFrame(nil, res.Relation))
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Errorf("TCP tree answered %d frame bytes unlike the in-process tree's %d", len(frames[1]), len(frames[0]))
	}
}

// sortAll orders r's rows by all its columns.
func sortAll(t *testing.T, r *relation.Relation) {
	t.Helper()
	if err := r.SortBy(r.Schema.Names()...); err != nil {
		t.Fatal(err)
	}
}
