// IP flow analysis: the paper's motivating application (Section 1).
// Routers dump flow records into local warehouses; the network operator
// asks OLAP questions against the union of all sites without moving
// detail data. This example answers the two questions from the paper's
// introduction:
//
//  1. "On an hourly basis, what fraction of the total number of flows is
//     due to Web traffic?"
//
//  2. "On an hourly basis, what fraction of the total traffic flowing
//     into the network is from IP subnets (here: source ASes) whose
//     total hourly traffic is within 10% of the maximum?"
//
//     go run ./examples/ipflows
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/ipflow"
	"repro/skalla"
)

func main() {
	const sites = 8
	cluster, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: sites})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Each router (site) generates its own day of flow records locally —
	// the data never crosses the network, just like real NetFlow
	// collection. SourceAS is pinned to routers, the assumption of the
	// paper's Examples 2 and 5.
	cfg := ipflow.Config{Flows: 40000, Routers: sites, ASes: 64, Hours: 24, ASPartitioned: true, Seed: 42}
	if _, err := cluster.Generate("flow", "ipflow", ipflow.GenParams(cfg)); err != nil {
		log.Fatal(err)
	}
	if err := ipflow.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
		log.Fatal(err)
	}

	webFractionPerHour(cluster)
	heavyHitterFraction(cluster)
}

// webFractionPerHour runs a single coalesced GMDJ: per hour, the total
// flow count and the count of Web flows (ports 80/443).
func webFractionPerHour(cluster *skalla.Cluster) {
	query, err := skalla.NewQuery("Hour").
		MD(skalla.Aggs("count(*) AS flows"), "F.Hour = B.Hour").
		MD(skalla.Aggs("count(*) AS web"),
			"F.Hour = B.Hour AND F.DestPort IN (80, 443)").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Query(query, "flow", skalla.AllOptimizations)
	if err != nil {
		log.Fatal(err)
	}
	res.Relation.SortBy("Hour")

	fmt.Println("Hourly Web-traffic fraction (flows):")
	fmt.Printf("%5s %8s %8s %8s\n", "hour", "flows", "web", "frac")
	for _, row := range res.Relation.Rows {
		flows, web := row[1].Int(), row[2].Int()
		fmt.Printf("%5d %8d %8d %8.2f\n", row[0].Int(), flows, web, float64(web)/float64(flows))
	}
	fmt.Printf("(evaluated in %d round(s), %d bytes moved)\n\n",
		len(res.Stats.Rounds), res.Stats.Bytes())
}

// heavyHitterFraction computes, per (Hour, SourceAS), the AS's hourly
// bytes and the hour's total bytes in one distributed query — note the
// second GMDJ's condition equates only Hour, so its RNG sets overlap
// across base tuples, which plain GROUP BY cannot express. The tiny
// final step (max per hour, fraction from ASes within 10% of it) runs on
// the base-result structure at the client.
func heavyHitterFraction(cluster *skalla.Cluster) {
	query, err := skalla.NewQuery("Hour", "SourceAS").
		MD(skalla.Aggs("sum(F.NumBytes) AS asBytes"),
			"F.Hour = B.Hour AND F.SourceAS = B.SourceAS").
		MD(skalla.Aggs("sum(F.NumBytes) AS hourBytes"),
			"F.Hour = B.Hour").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Query(query, "flow", skalla.AllOptimizations)
	if err != nil {
		log.Fatal(err)
	}

	type hourAgg struct {
		max, total, heavy float64
	}
	hours := map[int64]*hourAgg{}
	rows := res.Relation.Rows
	byHour := func(h int64) *hourAgg {
		a, ok := hours[h]
		if !ok {
			a = &hourAgg{}
			hours[h] = a
		}
		return a
	}
	for _, row := range rows {
		h := row[0].Int()
		as, _ := row[2].AsFloat()
		tot, _ := row[3].AsFloat()
		a := byHour(h)
		if as > a.max {
			a.max = as
		}
		a.total = tot
	}
	for _, row := range rows {
		h := row[0].Int()
		as, _ := row[2].AsFloat()
		if a := byHour(h); as >= 0.9*a.max {
			a.heavy += as
		}
	}

	var keys []int64
	for h := range hours {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	fmt.Println("Hourly fraction of traffic from ASes within 10% of the hourly maximum:")
	fmt.Printf("%5s %14s %14s %8s\n", "hour", "total bytes", "heavy bytes", "frac")
	for _, h := range keys {
		a := hours[h]
		fmt.Printf("%5d %14.0f %14.0f %8.3f\n", h, a.total, a.heavy, a.heavy/a.total)
	}
	fmt.Printf("(groups: %d, %d bytes moved — detail rows never left the routers)\n",
		res.Relation.Len(), res.Stats.Bytes())
}
