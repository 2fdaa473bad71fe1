package skalla

import (
	"context"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// planText extracts the rendered report from an EXPLAIN result relation.
func planText(t *testing.T, rel *Relation) string {
	t.Helper()
	if rel.Schema.Len() != 1 || rel.Schema.Names()[0] != PlanCol {
		t.Fatalf("EXPLAIN schema = %s, want single %q column", rel.Schema, PlanCol)
	}
	var lines []string
	for _, row := range rel.Rows {
		lines = append(lines, row[0].S)
	}
	return strings.Join(lines, "\n")
}

func TestExplainSQL(t *testing.T) {
	cluster, _ := cubeCluster(t)
	rel, err := cluster.SQL("EXPLAIN SELECT Region, count(*) AS n FROM sales GROUP BY Region", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	out := planText(t, rel)
	if !strings.HasPrefix(out, "plan:") {
		t.Errorf("EXPLAIN output does not start with the plan:\n%s", out)
	}
	if strings.Contains(out, "analyze:") {
		t.Errorf("plain EXPLAIN executed the query:\n%s", out)
	}
}

// TestExplainAnalyzeGolden pins the timing-free EXPLAIN ANALYZE report on
// a fixed dataset: the report must be identical across repeated
// executions, wire byte counts included, and its analyze section
// must carry the per-site breakdown with the sites' self-reported
// outcomes.
func TestExplainAnalyzeGolden(t *testing.T) {
	cluster, _ := cubeCluster(t)
	const stmt = "EXPLAIN ANALYZE SELECT Region, count(*) AS n, sum(Sales) AS total FROM sales GROUP BY Region"
	first, err := cluster.SQL(stmt, AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	out := planText(t, first)
	for _, want := range []string{
		"plan:",
		"analyze:",
		"round step 1:",
		"site0: shipped",
		"site1: shipped",
		"outcome ok",
		"totals:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Timing off (the default): no clock readings anywhere.
	for _, banned := range []string{"wall", "compute", "site(max)"} {
		if strings.Contains(out, banned) {
			t.Errorf("timing-free report leaks %q:\n%s", banned, out)
		}
	}
	for i := 0; i < 3; i++ {
		again, err := cluster.SQL(stmt, AllOptimizations)
		if err != nil {
			t.Fatal(err)
		}
		if rerun := planText(t, again); rerun != out {
			t.Fatalf("EXPLAIN ANALYZE not deterministic:\nfirst:\n%s\nrerun:\n%s", out, rerun)
		}
	}
}

func TestExplainAnalyzeTiming(t *testing.T) {
	cluster, _ := cubeCluster(t)
	cluster.AnalyzeTiming = true
	rel, err := cluster.SQL("EXPLAIN ANALYZE SELECT Region, count(*) AS n FROM sales GROUP BY Region", AllOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	out := planText(t, rel)
	if !strings.Contains(out, "site(max)") || !strings.Contains(out, "wall") {
		t.Errorf("AnalyzeTiming report missing durations:\n%s", out)
	}
}

// failEvals fails every evaluation request at the transport, as a site
// that is down for the whole query would.
type failEvals struct{ transport.Client }

func (f failEvals) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if req.Op == transport.OpEvalRounds {
		return nil, transport.ErrInjected
	}
	return f.Client.Call(ctx, req)
}

// TestExplainAnalyzeCarriesSettings: EXPLAIN ANALYZE executes on a
// coordinator derived from the cluster's, so it runs the query under the
// cluster's settings. With AllowPartial set and one site down, it reports
// the partial coverage instead of failing the way a coordinator without
// the setting would.
func TestExplainAnalyzeCarriesSettings(t *testing.T) {
	cluster, _ := cubeCluster(t)
	cluster.coord.AllowPartial = true
	lost := cluster.clients[1].SiteID()
	cluster.clients[1] = failEvals{cluster.clients[1]}
	rel, err := cluster.SQL("EXPLAIN ANALYZE SELECT Region, count(*) AS n FROM sales GROUP BY Region", NoOptimizations)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE dropped AllowPartial: %v", err)
	}
	if out := planText(t, rel); !strings.Contains(out, "(PARTIAL: lost "+lost+")") {
		t.Errorf("EXPLAIN ANALYZE does not report %s lost:\n%s", lost, out)
	}
}

func TestExplainCubeRejected(t *testing.T) {
	cluster, _ := cubeCluster(t)
	if _, err := cluster.SQL("EXPLAIN SELECT Region, count(*) AS n FROM sales CUBE BY Region", AllOptimizations); err == nil {
		t.Error("EXPLAIN over CUBE BY did not error")
	}
}

// TestUseCatalogFreshProofs: UseCatalog plans from a fresh version of the
// catalog it is given, so a partition claim written into it directly after
// a proof is re-proved instead of reused.
func TestUseCatalogFreshProofs(t *testing.T) {
	cluster, _ := cubeCluster(t)
	cat := cluster.Catalog()
	for i, region := range []string{"east", "west"} {
		if err := cat.SetDomain(cluster.SiteIDs()[i], "Region", expr.DomainSet(value.NewString(region))); err != nil {
			t.Fatal(err)
		}
	}
	const note = "groups are site-disjoint on region"
	explain := func() string {
		t.Helper()
		rel, err := cluster.SQL("EXPLAIN SELECT Region, count(*) AS n FROM sales GROUP BY Region", AllOptimizations)
		if err != nil {
			t.Fatal(err)
		}
		return planText(t, rel)
	}
	if out := explain(); !strings.Contains(out, note) {
		t.Fatalf("disjoint Region domains did not fold the step:\n%s", out)
	}
	cat.Sites[1].Domains["region"] = expr.DomainSet(value.NewString("east"), value.NewString("west"))
	cluster.UseCatalog(cat)
	if out := explain(); strings.Contains(out, note) {
		t.Errorf("UseCatalog reused a proof its catalog no longer supports:\n%s", out)
	}
}

// TestExplainMultiDetail: Explain plans a query whose second MD runs over
// another detail relation, exactly as Prepare does.
func TestExplainMultiDetail(t *testing.T) {
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	flows, _ := flowParts(3)
	if err := cluster.Load("flow", flows); err != nil {
		t.Fatal(err)
	}
	alertSchema := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "Severity", Kind: value.KindInt},
	)
	alerts := make([]*relation.Relation, 3)
	for i := range alerts {
		alerts[i] = relation.New(alertSchema)
		alerts[i].MustAppend(value.NewInt(int64(i+1)), value.NewInt(int64(i+1)))
	}
	if err := cluster.Load("alerts", alerts); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("SourceAS").
		MD(Aggs("count(*) AS flows", "avg(F.NumBytes) AS avg_nb"), "F.SourceAS = B.SourceAS").
		MD(Aggs("count(*) AS alerts", "max(F.Severity) AS worst"), "F.SourceAS = B.SourceAS AND F.Severity >= 2").
		MustBuild()
	q.MDs[1].Detail = "alerts"
	for _, opts := range []Options{NoOptimizations, AllOptimizations} {
		prepared, err := cluster.Prepare(q, "flow", opts)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := cluster.Explain(q, "flow", opts)
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		if got, want := plan.Explain(), prepared.Plan().Explain(); got != want {
			t.Errorf("Explain plan:\n%s\nPrepare plan:\n%s", got, want)
		}
	}
}
