package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// The wire matrix runs the paper's Fig. 5 query under every optimization
// subset, flat and under a two-tier relay tree, strict and with one site
// lost, and records what every round moved. Its answers are compared byte
// for byte with the centralized evaluation; testdata/wire_614333c.json holds
// the same records for the protocol before relation frames (commit
// 614333c, which shipped relations as gob rows), recorded by running
// wireMatrix at that commit.

// wireRound is what one synchronization round moved.
type wireRound struct {
	Name           string `json:"name"`
	GroupsShipped  int64  `json:"groups_shipped"`
	GroupsReceived int64  `json:"groups_received"`
	BytesToSites   int64  `json:"bytes_to_sites"`
	BytesFromSites int64  `json:"bytes_from_sites"`
}

// wireCase is one configuration of the matrix.
type wireCase struct {
	Label  string      `json:"label"`
	Rounds []wireRound `json:"rounds"`
	plan   *Plan
}

// wireMatrixConfig is the dataset of the matrix.
var wireMatrixConfig = tpcr.Config{Rows: 2000, Customers: 100, Seed: 5}

// fig5Parts generates four TPCR partitions of cfg (the matrix's is
// wireMatrixConfig) with dyadic float measures (Discount in 128ths,
// ExtendedPrice integral), so every float sum is exact and the distributed
// answer equals the centralized one to the byte whatever order fragments
// merge in.
func fig5Parts(t *testing.T, cfg tpcr.Config) []*relation.Relation {
	t.Helper()
	disc, _ := tpcr.Schema().Lookup("Discount")
	price, _ := tpcr.Schema().Lookup("ExtendedPrice")
	parts := make([]*relation.Relation, 4)
	for i := range parts {
		p, err := tpcr.GeneratePartition(cfg, i, len(parts))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range p.Rows {
			row[disc] = value.NewFloat(math.Round(row[disc].Float()*100) / 128)
			row[price] = value.NewFloat(math.Round(row[price].Float()))
		}
		parts[i] = p
	}
	return parts
}

// md is an MD with one aggregate list, parsed from text.
func md(theta string, aggs ...string) gmdj.MD {
	var specs []agg.Spec
	for _, a := range aggs {
		specs = append(specs, agg.MustParseSpec(a))
	}
	return gmdj.MD{Aggs: [][]agg.Spec{specs}, Thetas: []expr.Expr{expr.MustParse(theta)}}
}

// fig5Query is the paper's Fig. 5 query on attr: MD1 and MD2 coalesce,
// MD3 reads MD1's average.
func fig5Query(attr string) gmdj.Query {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	return gmdj.Query{
		Base: gmdj.BaseDef{Cols: []string{attr}},
		MDs: []gmdj.MD{
			md(eq, "count(*) AS cnt1", "avg(F.Quantity) AS avg1"),
			md(eq+" AND F.Discount > 0.05", "count(*) AS cnt2", "avg(F.Discount) AS avg2"),
			md(eq+" AND F.Quantity >= B.avg1", "count(*) AS cnt3", "avg(F.ExtendedPrice) AS avg3"),
		},
	}
}

// failEval is a site whose evaluations all fail: a lost site.
type failEval struct{ transport.Handler }

func (f failEval) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if req.Op == transport.OpEvalRounds {
		return &transport.Response{Err: "site down"}
	}
	return f.Handler.Handle(ctx, req)
}

// wireCluster serves parts from in-process leaf sites, flat or under two
// relays — leaves 0 and 2 under relay0, 1 and 3 under relay1, so each
// relay holds exactly the nations a two-site split assigns it. Every node
// serves behind the handler wrap returns for it: leaf i as node i, relay r
// as node len(parts)+r. The catalog describes the sites the coordinator
// talks to, holding parts of cfg.
func wireCluster(t *testing.T, cfg tpcr.Config, parts []*relation.Relation, relays bool, wrap func(i int, h transport.Handler) transport.Handler) (*Coordinator, *catalog.Catalog) {
	t.Helper()
	leaves := make([]transport.Client, len(parts))
	for i, p := range parts {
		eng := site.NewEngine(fmt.Sprintf("site%d", i))
		eng.Load("tpcr", p)
		leaves[i] = localClient(t, eng.ID(), wrap(i, eng))
	}
	clients := leaves
	if relays {
		clients = nil
		for r := 0; r < 2; r++ {
			relay, err := NewRelay([]transport.Client{leaves[r], leaves[r+2]})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, localClient(t, fmt.Sprintf("relay%d", r), wrap(len(parts)+r, relay)))
		}
	}
	ids := make([]string, len(clients))
	for i, cl := range clients {
		ids[i] = cl.SiteID()
	}
	cat := catalog.New(ids...)
	if err := tpcr.FillCatalog(cat, ids, cfg); err != nil {
		t.Fatal(err)
	}
	if err := tpcr.FillValueDomains(cat, ids, cfg); err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(clients...), cat
}

// sortedCSV renders a relation sorted on keys, for byte comparison.
func sortedCSV(t *testing.T, r *relation.Relation, keys []string) string {
	t.Helper()
	c := r.Clone()
	if err := c.SortBy(keys...); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// wireMatrix runs the matrix, checking every answer against gmdj.EvalQuery
// over the partitions whose sites answered; wrap builds each node's
// handler as wireCluster numbers them (the lost leaf's is wrapped once
// more, in failEval).
func wireMatrix(t *testing.T, wrap func(i int, h transport.Handler) transport.Handler) []wireCase {
	t.Helper()
	parts := fig5Parts(t, wireMatrixConfig)
	q := fig5Query("CustName")
	var cases []wireCase
	for _, relays := range []bool{false, true} {
		for _, lost := range []bool{false, true} {
			leaf := wrap
			survivors := parts
			if lost {
				// Leaf 3 is lost; under relays it takes relay1 (leaves 1, 3)
				// down with it.
				leaf = func(i int, h transport.Handler) transport.Handler {
					if i == 3 {
						return failEval{wrap(i, h)}
					}
					return wrap(i, h)
				}
				survivors = parts[:3]
				if relays {
					survivors = []*relation.Relation{parts[0], parts[2]}
				}
			}
			whole := relation.New(parts[0].Schema)
			for _, p := range survivors {
				whole.Rows = append(whole.Rows, p.Rows...)
			}
			want, err := gmdj.EvalQuery(whole, q)
			if err != nil {
				t.Fatal(err)
			}
			wantCSV := sortedCSV(t, want, q.Keys())
			coord, cat := wireCluster(t, wireMatrixConfig, parts, relays, leaf)
			coord.AllowPartial = lost
			for _, opts := range allOptions() {
				label := fmt.Sprintf("relays=%v/lost=%v/%s", relays, lost, optLabel(opts))
				got, stats, plan, err := coord.Run(context.Background(), q, "tpcr", Egil{Catalog: cat, Options: opts})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotCSV := sortedCSV(t, got, q.Keys()); gotCSV != wantCSV {
					t.Errorf("%s: answer differs from the centralized one:\n%s\nwant:\n%s", label, gotCSV, wantCSV)
				}
				c := wireCase{Label: label, plan: plan}
				for _, r := range stats.Rounds {
					c.Rounds = append(c.Rounds, wireRound{r.Name, r.GroupsShipped, r.GroupsReceived, r.BytesToSites, r.BytesFromSites})
				}
				cases = append(cases, c)
			}
		}
	}
	return cases
}
