package skalla

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/value"
)

// TestSiteFilterPast2To53: O1's site filter stays sound for INT domains
// past 2^53, where a bound converted to float64 rounds. site0 holds the
// one SourceAS 2^53+1, site1 holds 2^53 and 2^53+2. A filter derived in
// float arithmetic rounds site0's bounds to 2^53 and so drops base row
// 2^53+2 for θ B.SourceAS = F.SourceAS + 1, and base row 2^53 for θ
// B.SourceAS < F.SourceAS, each of which matches site0's row: the group
// would silently lose site0's count. The answer must be the centralized
// one.
func TestSiteFilterPast2To53(t *testing.T) {
	const p53 = int64(1) << 53
	s := relation.MustSchema(
		relation.Column{Name: "SourceAS", Kind: value.KindInt},
		relation.Column{Name: "DestAS", Kind: value.KindInt},
		relation.Column{Name: "NumBytes", Kind: value.KindInt},
	)
	parts := []*relation.Relation{relation.New(s), relation.New(s)}
	whole := relation.New(s)
	for i, src := range [][]int64{{p53 + 1}, {p53, p53 + 2}} {
		for _, as := range src {
			row := relation.Row{value.NewInt(as), value.NewInt(1), value.NewInt(100)}
			parts[i].Rows = append(parts[i].Rows, row)
			whole.Rows = append(whole.Rows, row)
		}
	}
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	ids := cluster.SiteIDs()
	for i, d := range []expr.Domain{
		expr.DomainRange(value.NewInt(p53+1), value.NewInt(p53+1)),
		expr.DomainRange(value.NewInt(p53), value.NewInt(p53+2)),
	} {
		if err := cluster.Catalog().SetDomain(ids[i], "SourceAS", d); err != nil {
			t.Fatal(err)
		}
	}
	for _, theta := range []string{"B.SourceAS = F.SourceAS + 1", "B.SourceAS < F.SourceAS"} {
		q := NewQuery("SourceAS", "DestAS").MD(Aggs("count(*) AS n"), theta).MustBuild()
		want, err := gmdj.EvalQuery(whole, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cluster.Query(q, "flow", Options{GroupReduceCoord: true})
		if err != nil {
			t.Fatalf("%s: %v", theta, err)
		}
		assertSameResult(t, theta, res.Relation, want)
	}
}
