// Data cube over the distributed warehouse: computes the full CUBE of
// (RegionKey, MktSegment, ReturnFlag) with COUNT/SUM/AVG over a TPC-R
// dataset spread across eight sites — one distributed round trip for the
// finest cuboid, client-side rollup for the other seven (possible because
// every aggregate ships as mergeable sub-aggregates, Theorem 1), and an
// unpivot of the result into a marginal-distribution table.
//
//	go run ./examples/cube
package main

import (
	"fmt"
	"log"

	"repro/internal/tpcr"
	"repro/skalla"
)

func main() {
	cluster, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cfg := tpcr.Config{Rows: 40000, Customers: 500, Seed: 11}
	if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(cfg)); err != nil {
		log.Fatal(err)
	}
	if err := tpcr.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
		log.Fatal(err)
	}

	cube, err := skalla.Cube(cluster, "tpcr",
		[]string{"RegionKey", "MktSegment", "ReturnFlag"},
		skalla.Aggs("count(*) AS lines", "sum(F.Quantity) AS qty", "avg(F.ExtendedPrice) AS avg_price"),
		skalla.AllOptimizations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CUBE(RegionKey, MktSegment, ReturnFlag): %d cuboid rows "+
		"(NULL = ALL), from one distributed query\n\n", cube.Len())

	fmt.Println("Per-region rollup (MktSegment and ReturnFlag rolled up):")
	show := 0
	for _, row := range cube.Rows {
		if !row[0].IsNull() && row[1].IsNull() && row[2].IsNull() {
			fmt.Printf("  region %v: %v lines, qty %v, avg price %.2f\n",
				row[0], row[3], row[4], row[5].Float())
			show++
		}
	}
	if show == 0 {
		log.Fatal("no per-region rollup rows found")
	}

	fmt.Println("\nGrand total:")
	for _, row := range cube.Rows {
		if row[0].IsNull() && row[1].IsNull() && row[2].IsNull() {
			fmt.Printf("  %v lines, qty %v, avg price %.2f\n", row[3], row[4], row[5].Float())
		}
	}

	// Unpivot the per-segment rollup into a marginal-distribution table,
	// as the paper's intro does with the unpivot operator.
	perSegment, err := skalla.GroupBy([]string{"MktSegment"},
		skalla.Aggs("sum(F.Quantity) AS qty", "sum(F.ExtendedPrice) AS revenue"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Query(perSegment, "tpcr", skalla.AllOptimizations)
	if err != nil {
		log.Fatal(err)
	}
	res.Relation.SortBy("MktSegment")
	flat, err := skalla.Unpivot(res.Relation, []string{"MktSegment"},
		[]string{"qty", "revenue"}, "measure", "value")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nUnpivoted per-segment measures:")
	fmt.Print(flat.Format(10))
}
