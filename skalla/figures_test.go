package skalla

// The shapes of the paper's evaluation (§5, Figs. 2-5) and a
// per-optimization ablation, checked on the traffic the paper's claims
// are about: exact bytes, groups and rounds. The data is a TPC-R relation
// partitioned on NationKey; CustName (high cardinality) and CustGroup
// (low cardinality) are both partition attributes through functional
// dependencies. `go test -v -run '^(TestFig|TestAblation)' ./skalla` logs
// one line per measured point.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tpcr"
)

const (
	figSites = 4
	highCard = "CustName"
	lowCard  = "CustGroup"
)

// figData is the dataset of Figs. 2-4 and the ablation. CustGroup is
// CustKey % LowCardGroups, a multiple of the 25 nations, so it keeps the
// partition FD.
var figData = tpcr.Config{Rows: 6000, Customers: 500, LowCardGroups: 100, Seed: 1}

// paperQuery builds a §5 test query grouped on attr. Every MD computes
// count(*) and the average of one detail column over the rows whose attr
// equals the group's: md[0] names that column, md[1] adds a condition.
func paperQuery(attr string, mds ...[2]string) Query {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	b := NewQuery(attr)
	for i, md := range mds {
		cond := eq
		if md[1] != "" {
			cond += " AND " + md[1]
		}
		b = b.MD(Aggs(fmt.Sprintf("count(*) AS cnt%d", i+1), fmt.Sprintf("avg(F.%s) AS avg%d", md[0], i+1)), cond)
	}
	return b.MustBuild()
}

// groupReductionQuery is the Fig. 2 and Fig. 4 query: the second MD reads
// the first's average, so the MDs cannot coalesce.
func groupReductionQuery(attr string) Query {
	return paperQuery(attr, [2]string{"Quantity", ""}, [2]string{"ExtendedPrice", "F.Quantity >= B.avg1"})
}

// coalescingQuery is the Fig. 3 query: the MDs are independent, so they
// coalesce into one.
func coalescingQuery(attr string) Query {
	return paperQuery(attr, [2]string{"Quantity", ""}, [2]string{"ExtendedPrice", "F.Discount > 0.05"})
}

// combinedQuery is the Fig. 5 query: MD1 and MD2 coalesce, MD3 reads
// MD1's average, and every condition carries the partition attribute.
func combinedQuery(attr string) Query {
	return paperQuery(attr, [2]string{"Quantity", ""}, [2]string{"Discount", "F.Discount > 0.05"},
		[2]string{"ExtendedPrice", "F.Quantity >= B.avg1"})
}

// figPoint is the traffic of one query execution.
type figPoint struct {
	bytes, shipped, received int64
	rounds, rows             int
}

func (p figPoint) groups() int64 { return p.shipped + p.received }

// figCluster starts figSites in-process sites holding tc's data.
func figCluster(t *testing.T, tc tpcr.Config) *Cluster {
	t.Helper()
	c, err := NewLocalCluster(ClusterConfig{Sites: figSites})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	figLoad(t, c, tc)
	return c
}

// figLoad (re)generates tc's data on every site of c and puts its
// partitioning and value domains (§4.1) in the catalog.
func figLoad(t *testing.T, c *Cluster, tc tpcr.Config) {
	t.Helper()
	if _, err := c.Generate("tpcr", "tpcr", tpcr.GenParams(tc)); err != nil {
		t.Fatal(err)
	}
	if err := tpcr.FillCatalog(c.Catalog(), c.SiteIDs(), tc); err != nil {
		t.Fatal(err)
	}
	if err := tpcr.FillValueDomains(c.Catalog(), c.SiteIDs(), tc); err != nil {
		t.Fatal(err)
	}
}

// figRun runs q on the first n sites of c and logs its traffic.
func figRun(t *testing.T, c *Cluster, n int, variant string, q Query, opts Options) figPoint {
	t.Helper()
	sub, err := c.Subset(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Query(q, "tpcr", opts)
	if err != nil {
		t.Fatalf("sites=%d %s: %v", n, variant, err)
	}
	p := figPoint{bytes: res.Stats.Bytes(), rounds: len(res.Stats.Rounds), rows: res.Relation.Len()}
	for _, r := range res.Stats.Rounds {
		p.shipped += r.GroupsShipped
		p.received += r.GroupsReceived
	}
	t.Logf("sites=%d %-24s bytes=%-8d groups shipped=%-6d received=%-6d rounds=%d",
		n, variant, p.bytes, p.shipped, p.received, p.rounds)
	return p
}

// figSweep runs q on 1..figSites sites without and with the optimization
// on.
func figSweep(t *testing.T, c *Cluster, name string, q Query, on Options) (off, opt []figPoint) {
	t.Helper()
	for n := 1; n <= figSites; n++ {
		off = append(off, figRun(t, c, n, name+" off", q, Options{}))
		opt = append(opt, figRun(t, c, n, name+" on", q, on))
	}
	return off, opt
}

// TestFig2Shape: site-side group reduction cuts the groups sites return,
// by the paper's (2c+2n+1)/(4n+1) within 5 %; coordinator-side reduction
// cuts the groups shipped; and unreduced traffic grows quadratically in
// the sites while reduced traffic grows more slowly.
func TestFig2Shape(t *testing.T) {
	c := figCluster(t, figData)
	q := groupReductionQuery(highCard)
	var none, both []figPoint
	for n := 1; n <= figSites; n++ {
		pNone := figRun(t, c, n, "none", q, Options{})
		pSite := figRun(t, c, n, "site GR", q, Options{GroupReduceSites: true})
		pCoord := figRun(t, c, n, "coord GR", q, Options{GroupReduceCoord: true})
		pBoth := figRun(t, c, n, "both GR", q, Options{GroupReduceSites: true, GroupReduceCoord: true})
		none, both = append(none, pNone), append(both, pBoth)
		if n > 1 && pSite.received >= pNone.received {
			t.Errorf("sites=%d: site GR did not reduce received groups (%d >= %d)", n, pSite.received, pNone.received)
		}
		if n > 1 && pCoord.shipped >= pNone.shipped {
			t.Errorf("sites=%d: coord GR did not reduce shipped groups (%d >= %d)", n, pCoord.shipped, pNone.shipped)
		}
		// §5.2: with G groups the base round moves G; each of the two MD
		// rounds ships nG and returns nG unreduced, or cG reduced, where c
		// is the fraction of group aggregates a grouping variable updates.
		g := float64(pNone.rows)
		if g == 0 || pNone.rounds < 2 {
			t.Fatalf("sites=%d: %d groups in %d rounds", n, pNone.rows, pNone.rounds)
		}
		cFrac := (float64(pSite.received) - g) / (float64(pNone.rounds-1) * g)
		nf := float64(n)
		predicted := (2*cFrac + 2*nf + 1) / (4*nf + 1)
		measured := float64(pSite.groups()) / float64(pNone.groups())
		t.Logf("sites=%d c=%.3f groups ratio predicted=%.3f measured=%.3f", n, cFrac, predicted, measured)
		if math.Abs(measured-predicted)/predicted > 0.05 {
			t.Errorf("sites=%d: formula off by more than 5%% (predicted %.3f, measured %.3f)", n, predicted, measured)
		}
	}
	n2, n4 := 1, 3
	noneGrowth := float64(none[n4].bytes) / float64(none[n2].bytes)
	bothGrowth := float64(both[n4].bytes) / float64(both[n2].bytes)
	if noneGrowth <= bothGrowth {
		t.Errorf("unreduced bytes grew %.2fx from 2 to 4 sites, reduced %.2fx: want the unreduced growth larger", noneGrowth, bothGrowth)
	}
	// Each of n sites is shipped all ~nG groups: quadratic, ~4x from 2 to 4.
	if shipGrowth := float64(none[n4].shipped) / float64(none[n2].shipped); shipGrowth < 3 {
		t.Errorf("unreduced shipped groups grew %.2fx from 2 to 4 sites, want ~4 (quadratic)", shipGrowth)
	}
}

// TestFig3Shape: coalescing cuts rounds and bytes at both cardinalities,
// and saves more bytes at the high one.
func TestFig3Shape(t *testing.T) {
	c := figCluster(t, figData)
	saved := map[string]int64{}
	for _, attr := range []string{highCard, lowCard} {
		off, on := figSweep(t, c, attr+" coalesce", coalescingQuery(attr), Options{Coalesce: true})
		for i := range off {
			if on[i].rounds >= off[i].rounds {
				t.Errorf("%s sites=%d: coalescing did not cut rounds (%d >= %d)", attr, i+1, on[i].rounds, off[i].rounds)
			}
			if on[i].bytes >= off[i].bytes {
				t.Errorf("%s sites=%d: coalescing did not cut bytes (%d >= %d)", attr, i+1, on[i].bytes, off[i].bytes)
			}
		}
		saved[attr] = off[figSites-1].bytes - on[figSites-1].bytes
	}
	if saved[highCard] <= saved[lowCard] {
		t.Errorf("high-cardinality saving %d B should exceed low-cardinality %d B", saved[highCard], saved[lowCard])
	}
}

// TestFig4Shape: synchronization reduction collapses the correlated query
// from 3 rounds to 1 and cuts its bytes, at both cardinalities.
func TestFig4Shape(t *testing.T) {
	c := figCluster(t, figData)
	for _, attr := range []string{highCard, lowCard} {
		off, on := figSweep(t, c, attr+" sync", groupReductionQuery(attr), Options{SyncReduce: true})
		for i := range off {
			if off[i].rounds != 3 || on[i].rounds != 1 {
				t.Errorf("%s sites=%d: rounds %d -> %d, want 3 -> 1", attr, i+1, off[i].rounds, on[i].rounds)
			}
			if on[i].bytes >= off[i].bytes {
				t.Errorf("%s sites=%d: sync reduction did not cut bytes (%d >= %d)", attr, i+1, on[i].bytes, off[i].bytes)
			}
		}
	}
}

// TestFig5Shape: scale-up on four sites, data ×1..×4, with the groups
// growing with the data and with a constant group count. All reductions
// move fewer bytes than none at every scale, and with growing groups the
// optimized bytes grow about linearly, far from quadratic.
func TestFig5Shape(t *testing.T) {
	c := figCluster(t, figData)
	q := combinedQuery(highCard)
	for _, constGroups := range []bool{false, true} {
		name := "groups grow"
		if constGroups {
			name = "constant groups"
		}
		t.Run(name, func(t *testing.T) {
			var opt []figPoint
			for scale := 1; scale <= 4; scale++ {
				tc := figData
				tc.Rows = figData.Rows / 2 * scale
				tc.Customers = figData.Customers / 2
				if !constGroups {
					tc.Customers *= scale
				}
				figLoad(t, c, tc)
				label := fmt.Sprintf("x%d", scale)
				none := figRun(t, c, figSites, label+" none", q, Options{})
				all := figRun(t, c, figSites, label+" all", q, AllOptimizations)
				if all.bytes >= none.bytes {
					t.Errorf("scale %d: all reductions moved %d B, none %d B", scale, all.bytes, none.bytes)
				}
				opt = append(opt, all)
			}
			if growth := float64(opt[3].bytes) / float64(opt[0].bytes); !constGroups && (growth < 1.5 || growth > 8) {
				t.Errorf("optimized bytes grew %.2fx from x1 to x4, want roughly linear", growth)
			}
		})
	}
}

// TestAblation runs the combined query on all sites under each
// optimization alone: all of them together take it from 4 rounds to 1
// and cut its bytes.
func TestAblation(t *testing.T) {
	c := figCluster(t, figData)
	q := combinedQuery(highCard)
	configs := []struct {
		label string
		opts  Options
	}{
		{"none", Options{}},
		{"coalesce", Options{Coalesce: true}},
		{"group-reduce-sites", Options{GroupReduceSites: true}},
		{"group-reduce-coord", Options{GroupReduceCoord: true}},
		{"sync-reduce", Options{SyncReduce: true}},
		{"all", AllOptimizations},
	}
	got := map[string]figPoint{}
	for _, cfg := range configs {
		got[cfg.label] = figRun(t, c, figSites, cfg.label, q, cfg.opts)
	}
	all, none := got["all"], got["none"]
	if all.bytes >= none.bytes {
		t.Errorf("all optimizations moved %d B, none %d B", all.bytes, none.bytes)
	}
	if all.rounds != 1 || none.rounds != 4 {
		t.Errorf("rounds: all=%d none=%d, want 1 and 4", all.rounds, none.rounds)
	}
}
