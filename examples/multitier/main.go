// Multi-tier coordination: the paper's future-work architecture (§6).
// Sixteen warehouse sites sit behind four relay tiers; each relay
// pre-merges its children's sub-aggregates (valid by Theorem 1 — the
// primitive states merge associatively) before forwarding one fragment
// upstream. The example runs the same query against a flat 16-site
// cluster and against the tree and compares the traffic the root
// coordinator sees.
//
//	go run ./examples/multitier
package main

import (
	"fmt"
	"log"

	"repro/internal/tpcr"
	"repro/skalla"
)

func main() {
	const leaves = 16
	cfg := tpcr.Config{Rows: 40000, Customers: 800, Seed: 21}
	query, err := skalla.NewQuery("CustName").
		MD(skalla.Aggs("count(*) AS lines", "avg(F.Quantity) AS avg_qty"),
			"F.CustName = B.CustName").
		MD(skalla.Aggs("count(*) AS big", "avg(F.ExtendedPrice) AS avg_price"),
			"F.CustName = B.CustName AND F.Quantity >= B.avg_qty").
		Build()
	if err != nil {
		log.Fatal(err)
	}

	flat, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: leaves})
	if err != nil {
		log.Fatal(err)
	}
	defer flat.Close()
	if _, err := flat.Generate("tpcr", "tpcr", tpcr.GenParams(cfg)); err != nil {
		log.Fatal(err)
	}

	tree, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: leaves, Fanout: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tree.Close()
	if _, err := tree.Generate("tpcr", "tpcr", tpcr.GenParams(cfg)); err != nil {
		log.Fatal(err)
	}

	// Site-side group reduction only: the interesting upstream traffic is
	// the unmergeable-looking multi-site fragments the relays combine.
	opts := skalla.Options{GroupReduceSites: true}

	flatRes, err := flat.Query(query, "tpcr", opts)
	if err != nil {
		log.Fatal(err)
	}
	treeRes, err := tree.Query(query, "tpcr", opts)
	if err != nil {
		log.Fatal(err)
	}

	if flatRes.Relation.Len() != treeRes.Relation.Len() {
		log.Fatalf("result mismatch: flat %d rows, tree %d rows",
			flatRes.Relation.Len(), treeRes.Relation.Len())
	}

	fmt.Printf("query over %d sites, %d result groups — identical results both ways\n\n",
		leaves, flatRes.Relation.Len())
	fmt.Printf("%-28s %14s %14s\n", "", "flat (16 sites)", "tree (4 relays)")
	fmt.Printf("%-28s %14d %14d\n", "coordinator messages", msgs(flatRes.Stats), msgs(treeRes.Stats))
	fmt.Printf("%-28s %14d %14d\n", "groups shipped from root", ship(flatRes.Stats), ship(treeRes.Stats))
	fmt.Printf("%-28s %14d %14d\n", "groups received at root", recv(flatRes.Stats), recv(treeRes.Stats))
	fmt.Printf("%-28s %14.1f %14.1f\n", "root KB moved",
		float64(flatRes.Stats.Bytes())/1024, float64(treeRes.Stats.Bytes())/1024)
	fmt.Println("\n(the tree's relays pre-merged their children's fragments, so the root")
	fmt.Println(" sees one fragment per relay instead of one per site)")
}

func msgs(s *skalla.ExecStats) int {
	return len(s.Rounds)
}

func ship(s *skalla.ExecStats) int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.GroupsShipped
	}
	return n
}

func recv(s *skalla.ExecStats) int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.GroupsReceived
	}
	return n
}
