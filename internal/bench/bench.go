// Package bench implements the paper's experimental evaluation (Section
// 5): speed-up experiments over 1..8 participating sites for the group
// reduction, coalescing, and synchronization reduction queries (Figs.
// 2-4), and the scale-up experiment with combined reductions (Fig. 5).
//
// The harness reproduces the paper's setup: a TPC-R-derived denormalized
// relation partitioned on NationKey across eight sites; every test query
// computes a COUNT and an AVG per GMDJ operator; the high-cardinality
// grouping attribute is CustName and the low-cardinality one is CustGroup
// (2000 values; both are partition attributes via functional
// dependencies). Query evaluation time is modeled as the paper measures
// it: per-round max site computation + coordinator computation + modeled
// communication time over a configurable link.
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// Config parameterizes the harness. Zero fields take scaled-down defaults
// so the full suite runs in seconds; raise Rows/Customers toward the
// paper's 6 M rows / 100 k customers for a full-scale run.
type Config struct {
	// Sites is the number of warehouse sites (paper: 8).
	Sites int
	// Rows is the total TPCR rows across all sites.
	Rows int
	// Customers is the high-cardinality group count (paper: 100,000).
	Customers int
	// LowCardGroups is the low-cardinality group count (paper: 2000-4000).
	LowCardGroups int
	// Seed drives data generation.
	Seed int64
	// Cost models the coordinator↔site links; zero defaults to the
	// paper-era WAN model (10 Mbit/s, 2 ms).
	Cost transport.CostModel
	// Repeat runs each measurement this many times and keeps the one
	// with the lowest evaluation time, smoothing scheduler noise out of
	// the reported curves. Default 1.
	Repeat int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Sites == 0 {
		c.Sites = 8
	}
	if c.Rows == 0 {
		c.Rows = 48000
	}
	if c.Customers == 0 {
		c.Customers = 4000
	}
	if c.LowCardGroups == 0 {
		c.LowCardGroups = 2000
	}
	if c.Cost == (transport.CostModel{}) {
		c.Cost = transport.DefaultWAN
	}
	if c.Repeat == 0 {
		c.Repeat = 1
	}
	return c
}

// HighCard and LowCard name the two grouping attributes of the
// experiments.
const (
	HighCard = "CustName"
	LowCard  = "CustGroup"
)

// Harness is a running experimental cluster with TPCR data loaded.
type Harness struct {
	Config  Config
	Cluster *skalla.Cluster
}

// tpcrConfig maps the harness config onto the generator. CustGroup
// cardinality is CustKey % LowCardGroups, which requires LowCardGroups to
// be a multiple of the nation count to preserve the partition FD; the
// Defaults (2000, 25) satisfy this.
func (c Config) tpcrConfig() tpcr.Config {
	return tpcr.Config{
		Rows:          c.Rows,
		Customers:     c.Customers,
		LowCardGroups: c.LowCardGroups,
		Seed:          c.Seed,
	}
}

// NewHarness starts an in-process cluster of cfg.Sites sites, generates
// each site's TPCR partition locally, and fills the catalog with the
// partitioning knowledge.
func NewHarness(cfg Config) (*Harness, error) {
	cfg = cfg.Defaults()
	cluster, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: cfg.Sites, Cost: cfg.Cost})
	if err != nil {
		return nil, err
	}
	h := &Harness{Config: cfg, Cluster: cluster}
	if err := h.regenerate(cfg.Sites, cfg.tpcrConfig()); err != nil {
		cluster.Close()
		return nil, err
	}
	return h, nil
}

// regenerate rebuilds the dataset (used by the scale-up experiment).
func (h *Harness) regenerate(sites int, tc tpcr.Config) error {
	sub, err := h.Cluster.Subset(sites)
	if err != nil {
		return err
	}
	if _, err := sub.Generate("tpcr", "tpcr", tpcr.GenParams(tc)); err != nil {
		return err
	}
	if err := tpcr.FillCatalog(h.Cluster.Catalog(), sub.SiteIDs(), tc); err != nil {
		return err
	}
	// Value-level distribution knowledge (§4.1) enables the
	// coordinator-side group reduction columns of the experiments.
	return tpcr.FillValueDomains(h.Cluster.Catalog(), sub.SiteIDs(), tc)
}

// Close shuts the cluster down.
func (h *Harness) Close() error { return h.Cluster.Close() }

// Measure summarizes one query execution.
type Measure struct {
	EvalTime   time.Duration
	SiteTime   time.Duration
	CoordTime  time.Duration
	CommTime   time.Duration
	Bytes      int64
	Shipped    int64 // base-result rows sent to sites
	Received   int64 // sub-result rows returned by sites
	Rounds     int
	ResultRows int
}

// Groups returns base-result rows shipped either way.
func (m Measure) Groups() int64 { return m.Shipped + m.Received }

// run executes the query on the first n sites under the given options,
// keeping the fastest of Config.Repeat repetitions.
func (h *Harness) run(n int, q skalla.Query, opts skalla.Options) (Measure, error) {
	best, err := h.runOnce(n, q, opts)
	if err != nil {
		return Measure{}, err
	}
	for i := 1; i < h.Config.Repeat; i++ {
		m, err := h.runOnce(n, q, opts)
		if err != nil {
			return Measure{}, err
		}
		if m.EvalTime < best.EvalTime {
			best = m
		}
	}
	return best, nil
}

func (h *Harness) runOnce(n int, q skalla.Query, opts skalla.Options) (Measure, error) {
	sub, err := h.Cluster.Subset(n)
	if err != nil {
		return Measure{}, err
	}
	res, err := sub.Query(q, "tpcr", opts)
	if err != nil {
		return Measure{}, err
	}
	s := res.Stats
	m := Measure{
		EvalTime:   s.EvalTime(),
		SiteTime:   s.SiteTime(),
		CoordTime:  s.CoordTime(),
		CommTime:   s.CommTime(),
		Bytes:      s.Bytes(),
		Rounds:     len(s.Rounds),
		ResultRows: res.Relation.Len(),
	}
	for _, r := range s.Rounds {
		m.Shipped += r.GroupsShipped
		m.Received += r.GroupsReceived
	}
	return m, nil
}

// The experiment queries. Every GMDJ computes a COUNT and an AVG, as in
// the paper's setup.

// GroupReductionQuery is the Fig. 2 / Fig. 4 query: two correlated GMDJs
// grouped on attr (the second condition references the first MD's AVG, so
// the MDs cannot coalesce and evaluation is inherently multi-round
// without synchronization reduction).
func GroupReductionQuery(attr string) skalla.Query {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	return skalla.NewQuery(attr).
		MD(skalla.Aggs("count(*) AS cnt1", "avg(F.Quantity) AS avg1"), eq).
		MD(skalla.Aggs("count(*) AS cnt2", "avg(F.ExtendedPrice) AS avg2"),
			eq+" AND F.Quantity >= B.avg1").
		MustBuild()
}

// CoalescingQuery is the Fig. 3 query: two GMDJs on attr whose second
// condition is independent of the first's outputs, so they coalesce into
// a single operator.
func CoalescingQuery(attr string) skalla.Query {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	return skalla.NewQuery(attr).
		MD(skalla.Aggs("count(*) AS cnt1", "avg(F.Quantity) AS avg1"), eq).
		MD(skalla.Aggs("count(*) AS cnt2", "avg(F.ExtendedPrice) AS avg2"),
			eq+" AND F.Discount > 0.05").
		MustBuild()
}

// CombinedQuery is the Fig. 5 query: three GMDJs exercising every
// optimization at once — MD1/MD2 coalesce, MD3 correlates with MD1's
// average, and all conditions carry the partition-attribute equality so
// synchronization reduction applies.
func CombinedQuery(attr string) skalla.Query {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	return skalla.NewQuery(attr).
		MD(skalla.Aggs("count(*) AS cnt1", "avg(F.Quantity) AS avg1"), eq).
		MD(skalla.Aggs("count(*) AS cnt2", "avg(F.Discount) AS avg2"),
			eq+" AND F.Discount > 0.05").
		MD(skalla.Aggs("count(*) AS cnt3", "avg(F.ExtendedPrice) AS avg3"),
			eq+" AND F.Quantity >= B.avg1").
		MustBuild()
}

// table renders aligned experiment output.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.title)
	for i, h := range t.header {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", width[i], h)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func kb(n int64) string {
	return fmt.Sprintf("%.1f", float64(n)/1024)
}
