package main

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// detail is the name the TPCR relation is stored under at every site.
const detail = "tpcr"

// workload is one benchmark input: a dataset, a query mix, the optimizer
// options, and how many closed-loop clients drive it.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records.
	why   string
	sites int
	data  tpcr.Config // Seed is filled in from -seed
	// attr is the grouping attribute of the Fig. 5 query ("" for SQL).
	attr string
	opts core.Options
	// replan makes every iteration fetch the schema and plan again, the
	// way a one-shot skalla-coord invocation does.
	replan  bool
	clients int
	// sql is the statement mix of the serve workload; clients cycle it.
	sql []string
}

// workloads lists the four inputs in the order they run. Sizes are chosen
// so one query costs 5-60 ms on two cores: a 20 s window then holds
// hundreds to thousands of samples.
var workloads = []workload{
	{
		name:  "shuffle_highcard",
		why:   "2000-group unoptimized 4-round query ships 2 MB: codec, row/batch conversion and merge dominate, kernel is small",
		sites: 4, data: tpcr.Config{Rows: 24000, Customers: 2000},
		attr: "CustName", opts: core.Options{}, clients: 1,
	},
	{
		name:  "scan_lowcard",
		why:   "200-group fully optimized 1-round query ships 23 KB: the site kernel is ~95% of the work, codec changes must not show",
		sites: 4, data: tpcr.Config{Rows: 96000, Customers: 2000, LowCardGroups: 200},
		attr: "CustGroup", opts: core.DefaultOptions, clients: 1,
	},
	{
		name:  "overhead_small",
		why:   "2000 rows over 8 sites, schema fetch and plan every query, 33 small messages: per-query and per-round fixed cost dominates",
		sites: 8, data: tpcr.Config{Rows: 2000, Customers: 100},
		attr: "CustName", opts: core.Options{}, replan: true, clients: 1,
	},
	{
		name:  "serve_mixed_tcp",
		why:   "2 concurrent SQL clients over Connect+QueryService on data loaded over the wire: pools, admission, parse and plan per request",
		sites: 4, data: tpcr.Config{Rows: 48000, Customers: 2000, LowCardGroups: 200},
		clients: 2,
		// Aggregates are integer sums, counts and extrema only: they merge
		// exactly across sites, so results compare byte-for-byte with a
		// one-site run. ORDER BY keys are unique so LIMIT is deterministic.
		sql: []string{
			"SELECT RegionKey, count(*) AS n, sum(Quantity) AS qty FROM tpcr GROUP BY RegionKey",
			"SELECT CustName, count(*) AS n, avg(Quantity) AS avg_qty FROM tpcr GROUP BY CustName",
			"SELECT RegionKey, MktSegment, count(*) AS n, sum(Quantity) AS qty, max(ExtendedPrice) AS top FROM tpcr CUBE BY RegionKey, MktSegment",
			"SELECT CustGroup, count(*) AS n, max(Quantity) AS top FROM tpcr WHERE Discount > 0.02 GROUP BY CustGroup HAVING n > 100 ORDER BY n DESC, CustGroup LIMIT 20",
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// combinedQuery is the paper's Fig. 5 query: three GMDJs on one grouping
// attribute — MD1/MD2 coalesce, MD3 correlates with MD1's average, and
// every condition carries the partition-attribute equality so
// synchronization reduction applies when enabled.
func combinedQuery(attr string) (gmdj.Query, error) {
	eq := fmt.Sprintf("F.%s = B.%s", attr, attr)
	return skalla.NewQuery(attr).
		MD(skalla.Aggs("count(*) AS cnt1", "avg(F.Quantity) AS avg1"), eq).
		MD(skalla.Aggs("count(*) AS cnt2", "avg(F.Discount) AS avg2"), eq+" AND F.Discount > 0.05").
		MD(skalla.Aggs("count(*) AS cnt3", "avg(F.ExtendedPrice) AS avg3"), eq+" AND F.Quantity >= B.avg1").
		Build()
}

// countingListener counts every byte that crosses the server side of the
// sites' sockets: read + written there is sent + received at the clients,
// whichever client stack (ours or skalla.Connect's) is on the other end.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// env is one built instance of a workload: sites behind TCP servers on
// loopback, the client side connected, data loaded, and one query run.
type env struct {
	w   *workload
	rec *recorder

	parts   []*relation.Relation
	engines []*site.Engine
	servers []*transport.Server
	// wireBytes and messages count socket bytes and handled requests
	// across all sites since the env was built.
	wireBytes atomic.Int64
	messages  atomic.Int64

	// GMDJ workloads: our own client stack.
	clients []transport.Client
	coord   *core.Coordinator
	cat     *catalog.Catalog
	query   gmdj.Query
	plan    *core.Plan

	// Serve workload: the stack skalla.Connect builds.
	cluster *skalla.Cluster
	svc     *skalla.QueryService
}

// buildEnv sets a workload up from nothing. Everything it does is what
// setup_s times: generate the partitions, start the servers, dial, load,
// fill the catalog, plan, and run the first query of each kind.
func buildEnv(w *workload, seed int64, rec *recorder) (e *env, err error) {
	e = &env{w: w, rec: rec}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := w.data
	cfg.Seed = seed
	ids := make([]string, w.sites)
	addrs := make([]string, w.sites)
	slots := make([]*atomic.Int64, w.sites)
	for i := range ids {
		ids[i] = fmt.Sprintf("site%d", i)
		part, err := tpcr.GeneratePartition(cfg, i, w.sites)
		if err != nil {
			return e, err
		}
		e.parts = append(e.parts, part)
		eng := site.NewEngine(ids[i])
		e.engines = append(e.engines, eng)
		slots[i] = new(atomic.Int64)
		srv := transport.NewServer(&tracedHandler{
			inner: eng, site: ids[i], rec: rec, slot: slots[i], requests: &e.messages,
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return e, fmt.Errorf("listen for %s: %w", ids[i], err)
		}
		addrs[i] = srv.Serve(countingListener{Listener: l, bytes: &e.wireBytes})
		e.servers = append(e.servers, srv)
	}

	if len(w.sql) > 0 {
		// Data is generated coordinator-side and shipped, so set-up pushes
		// large requests through the codec — the opposite direction to
		// queries, whose large messages are responses.
		e.cluster, err = skalla.Connect(addrs, transport.CostModel{})
		if err != nil {
			return e, err
		}
		if err := e.cluster.Load(detail, e.parts); err != nil {
			return e, err
		}
		if err := fillCatalog(e.cluster.Catalog(), ids, cfg); err != nil {
			return e, err
		}
		e.svc, err = skalla.NewQueryService(e.cluster, skalla.ServeConfig{MaxConcurrent: w.clients})
		if err != nil {
			return e, err
		}
		for i := range w.sql {
			if _, err := e.svc.Query(context.Background(), w.sql[i]); err != nil {
				return e, fmt.Errorf("first run of statement %d: %w", i, err)
			}
		}
		return e, nil
	}

	for i, id := range ids {
		e.engines[i].Load(detail, e.parts[i])
		// The client skalla.Connect deploys: a TCP connection behind a
		// Reconnector with Connect's defaults (3 attempts, 100 ms backoff).
		// A bare DialTCP client stays broken after one failed exchange, and
		// TCPClient.Call has a rare one: the cancellation watcher of a
		// finished call can fire late and poison the next call's deadline
		// ("i/o timeout" with no deadline set, about once in 10^5 calls on
		// the 8-site workload). Deployed clients absorb it as a retry.
		cl := transport.NewReplicaTCP(id, []string{addrs[i]}, transport.CostModel{}, 3, 100*time.Millisecond)
		e.clients = append(e.clients, &tracedClient{Client: cl, rec: rec, slot: slots[i]})
	}
	e.coord = core.NewCoordinator(e.clients...)
	e.cat = catalog.New(ids...)
	if err := fillCatalog(e.cat, ids, cfg); err != nil {
		return e, err
	}
	if e.query, err = combinedQuery(w.attr); err != nil {
		return e, err
	}
	if e.plan, err = e.buildPlan(context.Background()); err != nil {
		return e, err
	}
	if _, _, err := e.coord.Execute(context.Background(), e.plan); err != nil {
		return e, fmt.Errorf("first run: %w", err)
	}
	return e, nil
}

func fillCatalog(cat *catalog.Catalog, ids []string, cfg tpcr.Config) error {
	if err := tpcr.FillCatalog(cat, ids, cfg); err != nil {
		return err
	}
	return tpcr.FillValueDomains(cat, ids, cfg)
}

func (e *env) buildPlan(ctx context.Context) (*core.Plan, error) {
	schema, err := e.coord.DetailSchema(ctx, detail)
	if err != nil {
		return nil, err
	}
	return core.Egil{Catalog: e.cat, Options: e.w.opts}.BuildPlan(e.query, detail, schema)
}

// close tears the env down and waits for every server goroutine to exit.
func (e *env) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
	for _, cl := range e.clients {
		cl.Close()
	}
	for _, srv := range e.servers {
		srv.Close()
	}
}

// runOne runs operation number op (an index into the SQL mix; 0 for the
// GMDJ query) once and returns its result. With the recorder on it spans its own calls into each layer.
func (e *env) runOne(ctx context.Context, op int) (*relation.Relation, error) {
	tracing := e.rec.on.Load()
	var root span
	if tracing {
		root = e.rec.open(spanQuery, 0, "")
		defer func() { e.rec.finish(root) }()
	}
	if e.svc != nil {
		return e.svc.Query(ctx, e.w.sql[op])
	}

	// layer runs f inside a child span of root and makes that span the
	// parent of the transport.call spans recorded while f runs.
	layer := func(name string, f func() error) error {
		if !tracing {
			return f()
		}
		s := e.rec.open(name, root.ID, root.Query)
		e.rec.parent.Store(s.ID)
		err := f()
		e.rec.finish(s)
		return err
	}
	if tracing {
		root.Query = fmt.Sprintf("q%d", root.ID)
		e.rec.query.Store(&root.Query)
	}
	plan := e.plan
	if e.w.replan {
		err := layer(spanPlan, func() (err error) {
			plan, err = e.buildPlan(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var rel *relation.Relation
	err := layer(spanExecute, func() (err error) {
		rel, _, err = e.coord.Execute(ctx, plan)
		return err
	})
	return rel, err
}

// setupTimes builds the workload builds times, or when builds is 0 at least
// minBuilds times and, when a build is quick, until setupBudget is spent
// or maxBuilds are done — so the median of a 30 ms set-up rests on more
// than a handful of samples. It keeps the last build and returns each
// build's duration in seconds.
func setupTimes(w *workload, seed int64, rec *recorder, builds int) (*env, []float64, error) {
	const (
		minBuilds   = 5
		maxBuilds   = 25
		setupBudget = 1500 * time.Millisecond
	)
	more := func(done int, spent time.Duration) bool {
		if builds > 0 {
			return done < builds
		}
		return done < minBuilds || (done < maxBuilds && spent < setupBudget)
	}
	var e *env
	var times []float64
	begin := time.Now()
	for i := 0; more(i, time.Since(begin)); i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = buildEnv(w, seed, rec); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, times, nil
}
