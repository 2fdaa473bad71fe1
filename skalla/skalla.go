// Package skalla is the public API of the Skalla distributed OLAP system,
// a reproduction of "Efficient OLAP Query Processing in Distributed Data
// Warehouses" (Akinde, Böhlen, Johnson, Lakshmanan, Srivastava, 2002).
//
// A Cluster is a distributed data warehouse: local warehouse sites each
// holding a horizontal partition of a detail (fact) relation, plus a
// coordinator. OLAP queries are expressed as GMDJ expressions — built with
// NewQuery — and evaluated in rounds: sites compute sub-aggregates against
// their local partitions and the coordinator synchronizes them; detail
// tuples never leave their site.
//
// Quickstart:
//
//	cluster, _ := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: 4})
//	defer cluster.Close()
//	cluster.Load("flow", parts) // or cluster.Generate(...)
//	q, _ := skalla.NewQuery("SourceAS", "DestAS").
//		MD(skalla.Aggs("count(*) AS cnt1", "sum(F.NumBytes) AS sum1"),
//			"F.SourceAS = B.SourceAS AND F.DestAS = B.DestAS").
//		Build()
//	res, _ := cluster.Query(q, "flow", skalla.AllOptimizations)
//	fmt.Println(res.Relation)
//	fmt.Println(res.Stats)
package skalla

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gmdj"
	"repro/internal/ipflow"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
)

// Re-exported types, so most applications only import this package.
type (
	// Options selects the distributed optimizations (see core.Options).
	Options = core.Options
	// Plan is a distributed evaluation plan.
	Plan = core.Plan
	// ExecStats reports bytes, rounds, and time of one execution.
	ExecStats = core.ExecStats
	// Query is a complex GMDJ expression.
	Query = gmdj.Query
	// Relation is an in-memory relation.
	Relation = relation.Relation
	// Schema describes a relation's columns.
	Schema = relation.Schema
	// Catalog holds distribution knowledge.
	Catalog = catalog.Catalog
	// CostModel models the coordinator↔site links.
	CostModel = transport.CostModel
	// CheckpointStore persists round-level execution checkpoints.
	CheckpointStore = core.CheckpointStore
	// Limits bounds what one site request may produce.
	Limits = site.Limits
	// Settings are the coordinator behaviours that describe a deployment
	// (see core.Settings); the cluster configs embed them.
	Settings = core.Settings
	// Resilience is how a site call survives a bad replica (see
	// transport.Resilience); ConnectConfig embeds it.
	Resilience = transport.Resilience
)

// NewFileCheckpoints returns a file-backed checkpoint store rooted at
// dir: one JSON file per execution epoch, written atomically after every
// completed synchronization round.
func NewFileCheckpoints(dir string) (CheckpointStore, error) {
	return core.NewFileCheckpoints(dir)
}

// NewMemCheckpoints returns an in-memory checkpoint store (tests, or
// recovery from in-process coordinator restarts only).
func NewMemCheckpoints() CheckpointStore { return core.NewMemCheckpoints() }

// AllOptimizations enables every optimization of the paper.
var AllOptimizations = core.DefaultOptions

// NoOptimizations is the unoptimized baseline evaluation.
var NoOptimizations = Options{}

// DefaultWAN is a 10 Mbit/s, 2 ms cost model approximating the paper-era
// interconnect.
var DefaultWAN = transport.DefaultWAN

var registerOnce sync.Once

// registerGenerators installs the built-in dataset generators.
func registerGenerators() {
	registerOnce.Do(func() {
		site.RegisterGenerator("tpcr", tpcr.Generator)
		site.RegisterGenerator("ipflow", ipflow.Generator)
	})
}

// ClusterConfig configures a local (in-process) cluster.
type ClusterConfig struct {
	// Sites is the number of warehouse sites (default 4).
	Sites int
	// Fanout, when positive, puts a relay tier between the coordinator and
	// the sites — the multi-tier architecture of the paper's §6: each relay
	// coordinates Fanout sites (the last one the rest) and pre-merges their
	// sub-aggregates, and the coordinator talks only to the relays. The
	// sites are then the leaves ("leafN", Load and Generate address them);
	// the relays ("relayN") are the cluster's sites.
	Fanout int
	// Cost models each coordinator↔site link; the zero value accounts
	// nothing.
	Cost CostModel
	// UseTCP runs each site behind a real TCP server on loopback instead
	// of over an in-process pipe. Both run the same client and server
	// code, so every call is encoded, counted and cancelled alike; TCP
	// adds the sockets, for integration testing and demos.
	UseTCP bool
	// Settings are the coordinator's deployment behaviours: call timeout,
	// degraded partial results, the obs sink (also handed to the site
	// engines and the transports; nil disables observability at near-zero
	// cost), checkpoints.
	Settings
	// Limits applies per-request resource limits at every in-process
	// site engine; oversized results are refused with ErrOverloaded.
	Limits Limits
}

// Cluster is a running distributed data warehouse.
type Cluster struct {
	// AnalyzeTiming makes EXPLAIN ANALYZE include measured durations
	// (site/coord/comm times, straggler ratios, wall time). Off by
	// default so the report is deterministic for a fixed input — the
	// -profile flag of skalla-coord turns it on.
	AnalyzeTiming bool

	ids []string
	// sites and clients hold, in ids order, each site's stack and its one
	// pooled client. Every caller — queries, SQL, EXPLAIN ANALYZE,
	// subsets, status checks and the query service — calls through them:
	// each call's bytes travel with the call, so sharing leaves every
	// query's accounting exact.
	sites   []*transport.Site
	clients []transport.Client
	coord   *core.Coordinator
	cat     *catalog.Catalog
	engines []*site.Engine      // in-process sites (NewLocalCluster)
	servers []*transport.Server // owned TCP servers, closed with the cluster
	obs     *obs.Obs

	// leaves is set for multi-tier clusters: the leaf sites, which Load
	// and Generate address directly (a relay places no data).
	leaves *Cluster
}

// open builds, for each spec, the site's stack and its one pooled client
// — the only place a cluster builds site clients — and the coordinator
// and the catalog over them. On error the caller closes c.
func (c *Cluster) open(specs []transport.SiteSpec, settings Settings) error {
	for _, spec := range specs {
		s, err := transport.NewSite(spec)
		if err != nil {
			return fmt.Errorf("skalla: connect site %s: %w", spec.ID, err)
		}
		c.sites = append(c.sites, s)
		c.ids = append(c.ids, spec.ID)
		c.clients = append(c.clients, s.Client())
	}
	c.coord = core.NewCoordinator(c.clients...)
	c.coord.Settings = settings
	c.cat = catalog.New(c.ids...)
	return nil
}

// NewLocalCluster starts an in-process cluster with cfg.Sites sites, under
// a relay tier when cfg.Fanout is set. The coordinator runs with
// cfg.Settings and the sites with cfg.Obs and cfg.Limits; a relay's
// coordinator gets cfg.Obs alone, so a relay stays strict.
func NewLocalCluster(cfg ClusterConfig) (*Cluster, error) {
	registerGenerators()
	if cfg.Sites == 0 {
		cfg.Sites = 4
	}
	if cfg.Sites < 0 || cfg.Fanout < 0 {
		return nil, fmt.Errorf("skalla: invalid cluster shape: %d sites, fanout %d", cfg.Sites, cfg.Fanout)
	}
	c := &Cluster{obs: cfg.Obs}
	if err := c.startLocal(cfg); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// startLocal starts cfg's site engines, and with cfg.Fanout the relays
// over them, and opens c over the top tier.
func (c *Cluster) startLocal(cfg ClusterConfig) error {
	leaves, name := c, "site%d"
	if cfg.Fanout > 0 {
		leaves, name = &Cluster{obs: cfg.Obs}, "leaf%d"
		c.leaves = leaves
	}
	specs := make([]transport.SiteSpec, cfg.Sites)
	for i := range specs {
		eng := site.NewEngine(fmt.Sprintf(name, i))
		eng.SetObs(cfg.Obs)
		eng.SetLimits(cfg.Limits)
		leaves.engines = append(leaves.engines, eng)
		var err error
		if specs[i], err = c.localSpec(eng.ID(), eng, cfg); err != nil {
			return err
		}
	}
	if cfg.Fanout > 0 {
		if err := leaves.open(specs, Settings{}); err != nil {
			return err
		}
		specs = nil
		for off := 0; off < cfg.Sites; off += cfg.Fanout {
			relay, err := core.NewRelay(leaves.clients[off:min(off+cfg.Fanout, cfg.Sites)])
			if err != nil {
				return fmt.Errorf("skalla: %w", err)
			}
			relay.SetObs(cfg.Obs)
			spec, err := c.localSpec(fmt.Sprintf("relay%d", off/cfg.Fanout), relay, cfg)
			if err != nil {
				return err
			}
			specs = append(specs, spec)
		}
	}
	return c.open(specs, cfg.Settings)
}

// localSpec describes in-process handler h, a site engine or a relay, as
// site id: reached over a pipe, or with cfg.UseTCP through a loopback TCP
// server the cluster owns.
func (c *Cluster) localSpec(id string, h transport.Handler, cfg ClusterConfig) (transport.SiteSpec, error) {
	replica := transport.Replica{Handler: h}
	if cfg.UseTCP {
		srv := transport.NewServer(h)
		srv.Obs = cfg.Obs
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return transport.SiteSpec{}, fmt.Errorf("skalla: start site %s: %w", id, err)
		}
		c.servers = append(c.servers, srv)
		replica = transport.Replica{Addr: addr}
	}
	return transport.SiteSpec{ID: id, Replicas: []transport.Replica{replica}, Cost: cfg.Cost, Obs: cfg.Obs}, nil
}

// Stacks names, one line per site, the client stack the cluster reaches
// the site through, for start-up logs.
func (c *Cluster) Stacks() string {
	var b strings.Builder
	for _, s := range c.sites {
		fmt.Fprintf(&b, "client stack %s: %s\n", s.ID(), s)
	}
	return b.String()
}

// ConnectConfig configures a cluster over already-running remote site
// servers (cmd/skalla-site).
type ConnectConfig struct {
	// Sites lists one entry per logical site. An entry is a single
	// address or several replica addresses separated by '|'
	// ("10.0.0.1:7001|10.0.1.1:7001"): replicas are tried in order, and
	// after Attempts transport failures against one the coordinator
	// transparently fails over to the next. Replicas must hold the same
	// partition; re-issuing a round is safe because rounds ship only
	// partial aggregate state (see PROTOCOL.md).
	Sites []string
	// Cost models the coordinator↔site links.
	Cost CostModel
	// Settings are the coordinator's deployment behaviours. CallTimeout
	// also bounds the connect-time reachability check; AllowPartial also
	// tolerates unreachable sites at connect time; Obs receives
	// coordinator metrics, spans, and transport retry/failover events
	// (site-side metrics live in the remote skalla-site processes).
	Settings
	// Resilience is how a site call survives a bad replica: retries,
	// hedging, and the cluster-wide retry budget. Unset fields take
	// transport.DefaultResilience.
	Resilience
}

// Connect builds a cluster over already-running remote site servers (one
// address per site, as started by cmd/skalla-site). Connections
// transparently reconnect and retry on transport failures (e.g. a site
// restart), so transient outages do not kill long coordinator sessions.
// For replica failover, timeouts, and degraded mode, use ConnectWith.
func Connect(addrs []string, cost CostModel) (*Cluster, error) {
	return ConnectWith(ConnectConfig{Sites: addrs, Cost: cost})
}

// ConnectWith builds a cluster over remote site servers with full
// fault-tolerance control: per-endpoint retries with jittered exponential
// backoff, replica failover or hedging, per-call timeouts, and degraded
// partial results.
func ConnectWith(cfg ConnectConfig) (*Cluster, error) {
	registerGenerators()
	specs, err := cfg.siteSpecs()
	if err != nil {
		return nil, err
	}
	c := &Cluster{obs: cfg.Obs}
	if err := c.open(specs, cfg.Settings); err != nil {
		c.Close()
		return nil, err
	}
	// Validate reachability eagerly so misconfigured addresses fail at
	// connect time, not at first query — unless partial results are
	// allowed, in which case a down site is tolerable now and reported as
	// lost coverage later.
	ctx, done := context.Background(), context.CancelFunc(func() {})
	if cfg.CallTimeout > 0 {
		ctx, done = context.WithTimeout(ctx, cfg.CallTimeout)
	}
	errs := c.eachSite(func(i int) error {
		_, err := call(ctx, c.clients[i], &transport.Request{Op: transport.OpPing})
		return err
	})
	done()
	for i, err := range errs {
		if err != nil && !cfg.AllowPartial {
			c.Close()
			return nil, fmt.Errorf("skalla: connect %s: %w", cfg.Sites[i], err)
		}
	}
	return c, nil
}

// siteSpecs describes the client stack of every site entry.
func (cfg ConnectConfig) siteSpecs() ([]transport.SiteSpec, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("skalla: no site addresses")
	}
	res := cfg.Resilience.WithDefaults()
	budget := res.NewBudget(cfg.Obs)
	specs := make([]transport.SiteSpec, len(cfg.Sites))
	for i, entry := range cfg.Sites {
		specs[i] = transport.SiteSpec{
			ID: fmt.Sprintf("site%d", i), Cost: cfg.Cost, Obs: cfg.Obs,
			Resilience: res, Budget: budget,
		}
		for _, a := range strings.Split(entry, "|") {
			if a = strings.TrimSpace(a); a == "" {
				return nil, fmt.Errorf("skalla: empty address in site entry %q", entry)
			}
			specs[i].Replicas = append(specs[i].Replicas, transport.Replica{Addr: a})
		}
	}
	return specs, nil
}

// eachSite calls fn for every site at once and returns each site's
// error, in site order.
func (c *Cluster) eachSite(fn func(i int) error) []error {
	errs := make([]error, len(c.clients))
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

// call makes one request of a site and folds a site-reported error into
// the returned error.
func call(ctx context.Context, cl transport.Client, req *transport.Request) (*transport.Response, error) {
	resp, err := cl.Call(ctx, req)
	if err == nil {
		err = resp.Error()
	}
	return resp, err
}

// Close releases all connections — a tree cluster's leaf connections
// too — and stops owned servers.
func (c *Cluster) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, cl := range c.clients {
		keep(cl.Close())
	}
	for _, s := range c.sites {
		keep(s.Close())
	}
	if c.leaves != nil {
		keep(c.leaves.Close())
	}
	for _, srv := range c.servers {
		keep(srv.Close())
	}
	return first
}

// NumSites returns the number of sites.
func (c *Cluster) NumSites() int { return len(c.clients) }

// SiteIDs returns the site identifiers.
func (c *Cluster) SiteIDs() []string { return append([]string(nil), c.ids...) }

// Catalog returns the cluster's distribution-knowledge catalog, which
// callers populate (e.g. via tpcr.FillCatalog) to enable the
// distribution-aware optimizations.
func (c *Cluster) Catalog() *catalog.Catalog { return c.cat }

// UseCatalog replaces the cluster's distribution knowledge, e.g. with a
// catalog loaded from a JSON file (catalog.LoadFile) describing a real
// deployment's partitioning. Planning starts from a fresh version of it:
// no proof made before the call is reused.
func (c *Cluster) UseCatalog(cat *Catalog) {
	if cat != nil {
		cat.Invalidate()
		c.cat = cat
	}
}

// Coordinator exposes the underlying coordinator for advanced use
// (custom plans, statistics access).
func (c *Cluster) Coordinator() *core.Coordinator { return c.coord }

// Obs returns the observability sink the cluster was configured with
// (nil when observability is disabled).
func (c *Cluster) Obs() *obs.Obs { return c.obs }

// Subset returns a view of the cluster restricted to its first n sites —
// used by the speed-up experiments that vary participating sites. The
// subset shares clients and catalog with the parent; closing the parent
// closes the subset.
func (c *Cluster) Subset(n int) (*Cluster, error) {
	if n <= 0 || n > len(c.clients) {
		return nil, fmt.Errorf("skalla: subset of %d from %d sites", n, len(c.clients))
	}
	sub := &Cluster{
		AnalyzeTiming: c.AnalyzeTiming,
		ids:           c.ids[:n],
		sites:         c.sites[:n],
		clients:       c.clients[:n],
		cat:           c.cat,
		obs:           c.obs,
	}
	sub.coord = c.coord.Derive(sub.clients...)
	return sub, nil
}

// Load ships one partition per site, to all sites at once, and stores it
// under the given relation name. len(parts) must equal the number of
// sites (leaves for a multi-tier cluster). (Loading moves detail data and
// is meant for small examples; production-shaped deployments Generate
// data at the sites or ingest it locally.)
func (c *Cluster) Load(rel string, parts []*relation.Relation) error {
	target := c.dataSites()
	if len(parts) != len(target.clients) {
		return fmt.Errorf("skalla: %d partitions for %d sites", len(parts), len(target.clients))
	}
	errs := target.eachSite(func(i int) error {
		_, err := call(context.Background(), target.clients[i], &transport.Request{Op: transport.OpLoad, Rel: rel, Data: parts[i]})
		return err
	})
	return target.firstErr("load to", errs)
}

// Generate has every site (every leaf of a multi-tier cluster) synthesize
// its own partition of a registered dataset ("tpcr" or "ipflow") locally —
// no detail data crosses the wire. It returns the per-site row counts.
func (c *Cluster) Generate(rel, kind string, params map[string]int64) ([]int, error) {
	target := c.dataSites()
	counts := make([]int, len(target.clients))
	errs := target.eachSite(func(i int) error {
		resp, err := call(context.Background(), target.clients[i], &transport.Request{
			Op: transport.OpGenerate,
			Gen: &transport.GenSpec{
				Kind: kind, Rel: rel, Params: params,
				Site: i, NumSites: len(counts),
			},
		})
		if err == nil {
			counts[i] = resp.RowCount
		}
		return err
	})
	if err := target.firstErr("generate at", errs); err != nil {
		return nil, err
	}
	return counts, nil
}

// dataSites is the tier that holds the data: the leaves of a multi-tier
// cluster, else the cluster itself.
func (c *Cluster) dataSites() *Cluster {
	if c.leaves != nil {
		return c.leaves
	}
	return c
}

// NumLeaves returns the number of leaf sites (0 for flat clusters).
func (c *Cluster) NumLeaves() int {
	if c.leaves == nil {
		return 0
	}
	return c.leaves.NumSites()
}

// firstErr returns the first error of errs, in site order, naming its
// site after what.
func (c *Cluster) firstErr(what string, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("skalla: %s %s: %w", what, c.ids[i], err)
		}
	}
	return nil
}

// Result bundles the outcome of one distributed query execution.
type Result struct {
	// Relation is the final base-result structure X.
	Relation *relation.Relation
	// Stats reports traffic and time per round.
	Stats *ExecStats
	// Plan is the distributed plan that ran, with optimizer notes.
	Plan *Plan
}

// whole returns the relation of a result that lost no site: SQL and
// grouping sets keep no ExecStats, so a partial one would pass for whole.
func (r *Result) whole() (*Relation, error) {
	if lost := r.Stats.LostSites(); len(lost) > 0 {
		return nil, fmt.Errorf("skalla: partial result refused: lost sites %s", strings.Join(lost, ", "))
	}
	return r.Relation, nil
}

// Query plans and executes a GMDJ query against the named detail
// relation under the given optimization options.
func (c *Cluster) Query(q Query, detail string, opts Options) (*Result, error) {
	return c.QueryContext(context.Background(), q, detail, opts)
}

// QueryContext is Query under a context: cancelling ctx (or hitting its
// deadline) aborts all in-flight site calls and returns promptly. The
// cluster's CallTimeout and AllowPartial settings apply on top.
func (c *Cluster) QueryContext(ctx context.Context, q Query, detail string, opts Options) (*Result, error) {
	rel, stats, plan, err := c.coord.Run(ctx, q, detail, core.Egil{Catalog: c.cat, Options: opts})
	if err != nil {
		return nil, err
	}
	return &Result{Relation: rel, Stats: stats, Plan: plan}, nil
}

// Explain plans the query without executing it.
func (c *Cluster) Explain(q Query, detail string, opts Options) (*Plan, error) {
	return c.coord.Plan(context.Background(), q, detail, core.Egil{Catalog: c.cat, Options: opts})
}
