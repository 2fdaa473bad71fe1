// Command skalla-coord is the Skalla coordinator CLI: it connects to
// running site servers (cmd/skalla-site), optionally has them generate
// their TPC-R partitions, and evaluates GMDJ queries distributed across
// them, printing the result, the plan, and the execution statistics.
//
// Query syntax: the base is a comma-separated column list; each -md flag
// adds one GMDJ operator written as "aggs ; condition" where aggs is a
// comma-separated list of aggregate specs:
//
//	skalla-coord -sites 127.0.0.1:7001,127.0.0.1:7002 \
//	  -generate tpcr -rows 60000 \
//	  -base CustName \
//	  -md "count(*) AS cnt1, avg(F.Quantity) AS avg1 ; F.CustName = B.CustName" \
//	  -md "count(*) AS cnt2 ; F.CustName = B.CustName AND F.Quantity >= B.avg1" \
//	  -opt all
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/ipflow"
	"repro/internal/obs"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// mdFlags collects repeated -md flags.
type mdFlags []string

func (m *mdFlags) String() string { return strings.Join(*m, " | ") }

func (m *mdFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// config is everything the flags bind. Library settings bind straight
// into the structs the library consumes — their registered defaults are
// the library's defaults — and the CLI's own flags sit beside them.
type config struct {
	conn  skalla.ConnectConfig
	serve skalla.ServeConfig

	// Library settings that need parsing or a side effect before use.
	sites, checkpointDir, opt string

	detail, generate  string
	rows, customers   int
	seed              int64
	base, where       string
	mds               mdFlags
	sql               string
	explain, repl     bool
	status, statsJSON bool
	profile           bool
	catalog           string
	maxRows           int
	trace, debugAddr  string
	serveAddr         string
}

// bindFlags registers every skalla-coord flag on fs.
func bindFlags(fs *flag.FlagSet) *config {
	c := &config{
		conn: skalla.ConnectConfig{Resilience: transport.DefaultResilience},
		serve: skalla.ServeConfig{
			MaxConcurrent: 4, QueueDepth: 8, QueueTimeout: 2 * time.Second,
		},
	}
	fs.StringVar(&c.sites, "sites", "127.0.0.1:7001", "comma-separated site addresses; replicas of one site joined with | (addr1|addr2)")
	fs.StringVar(&c.detail, "detail", "tpcr", "detail relation name at the sites")
	fs.StringVar(&c.generate, "generate", "", "have sites generate data first: tpcr or ipflow")
	fs.IntVar(&c.rows, "rows", 60000, "rows for -generate")
	fs.IntVar(&c.customers, "customers", 1000, "distinct customers for -generate tpcr")
	fs.Int64Var(&c.seed, "seed", 1, "generator seed")
	fs.StringVar(&c.base, "base", "", "base-values columns (comma separated)")
	fs.StringVar(&c.where, "where", "", "optional base filter over the detail relation")
	fs.Var(&c.mds, "md", "GMDJ operator: \"aggs ; condition\" (repeatable)")
	fs.StringVar(&c.sql, "sql", "", "run a SQL statement (SELECT ... FROM ... GROUP BY / CUBE BY ...) instead of -base/-md")
	fs.StringVar(&c.opt, "opt", "all", "optimizations: all, none, or comma list of coalesce,group-sites,group-coord,sync")
	fs.BoolVar(&c.explain, "explain", false, "print the plan without executing")
	fs.BoolVar(&c.repl, "repl", false, "interactive SQL shell over the connected sites")
	fs.BoolVar(&c.status, "status", false, "print per-site reachability and row counts, then exit")
	fs.StringVar(&c.catalog, "catalog", "", "distribution-knowledge JSON: loaded if present; written after -generate")
	fs.IntVar(&c.maxRows, "max-rows", 20, "result rows to print (-1 for all)")
	fs.DurationVar(&c.conn.CallTimeout, "timeout", c.conn.CallTimeout, "per-site call timeout (0 = none), e.g. 5s")
	fs.IntVar(&c.conn.Attempts, "retries", c.conn.Attempts, "call attempts per site endpoint before failing over")
	fs.BoolVar(&c.conn.AllowPartial, "allow-partial", c.conn.AllowPartial, "return partial results when sites are lost instead of failing")
	fs.BoolVar(&c.statsJSON, "stats-json", false, "print execution statistics as deterministic JSON instead of the prose report (suppresses plan and result output)")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace_event JSON file of the execution (open in chrome://tracing or Perfetto)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve observability over HTTP on this address (/metrics, /events, /trace); empty disables")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "checkpoint each synchronization round into this directory and resume an interrupted execution from its last completed round; empty disables")
	fs.StringVar(&c.serveAddr, "serve", "", "serve concurrent SQL queries over HTTP on this address (POST /query, plus /metrics /healthz /readyz); empty disables")
	fs.IntVar(&c.serve.MaxConcurrent, "serve-concurrency", c.serve.MaxConcurrent, "queries executing at once in -serve mode")
	fs.IntVar(&c.serve.QueueDepth, "serve-queue", c.serve.QueueDepth, "queries that may wait for an execution slot before new arrivals are rejected (HTTP 429)")
	fs.DurationVar(&c.serve.QueueTimeout, "serve-queue-timeout", c.serve.QueueTimeout, "max time a queued query waits for a slot before rejection (0 = bounded only by the request)")
	fs.DurationVar(&c.serve.QueryTimeout, "serve-query-timeout", c.serve.QueryTimeout, "per-query execution bound in -serve mode (0 = none)")
	fs.DurationVar(&c.serve.SlowQuery, "serve-slow-query", c.serve.SlowQuery, "emit a slow-query event (and count serve.slow_queries) for served queries at or above this wall time (0 = disabled)")
	fs.BoolVar(&c.conn.Hedge, "hedge", c.conn.Hedge, "hedge straggling round requests against the next replica of sites with | replica addresses: first success wins, the loser is cancelled")
	fs.DurationVar(&c.conn.HedgeDelay, "hedge-delay", c.conn.HedgeDelay, "fixed hedge trigger delay; 0 adapts per site from an EWMA of recent call latency")
	fs.Float64Var(&c.conn.RetryBudget, "retry-budget", c.conn.RetryBudget, "retry tokens earned per primary call, shared across all sites; hedges and transport retries each spend one token")
	fs.IntVar(&c.conn.RetryBudgetBurst, "retry-budget-burst", c.conn.RetryBudgetBurst, "retry token-bucket cap")
	fs.BoolVar(&c.profile, "profile", false, "tag the execution with a query ID so sites return per-request profiles, and print the EXPLAIN ANALYZE report with timings; also adds timings to EXPLAIN ANALYZE SQL statements")
	return c
}

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()

	opts, err := parseOpts(cfg.opt)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}
	cfg.serve.Opts = &opts

	if cfg.trace != "" || cfg.debugAddr != "" || cfg.serveAddr != "" {
		cfg.conn.Obs = obs.Default
	}
	sink := cfg.conn.Obs
	if cfg.checkpointDir != "" {
		cfg.conn.Checkpoints, err = skalla.NewFileCheckpoints(cfg.checkpointDir)
		if err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
	}
	cfg.conn.Sites = strings.Split(cfg.sites, ",")

	cluster, err := skalla.ConnectWith(cfg.conn)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}
	defer cluster.Close()
	fmt.Fprint(os.Stderr, cluster.Stacks())
	cluster.AnalyzeTiming = cfg.profile
	if cfg.profile {
		// One query per CLI invocation: a fixed ID is unambiguous.
		cluster.Coordinator().QueryID = "cli-000001"
	}

	if cfg.debugAddr != "" {
		dbg, err := obs.ServeDebug(cfg.debugAddr, sink)
		if err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s (/metrics /events /trace)\n", dbg.Addr())
	}

	if cfg.catalog != "" {
		if _, statErr := os.Stat(cfg.catalog); statErr == nil {
			cat, err := catalog.LoadFile(cfg.catalog)
			if err != nil {
				log.Fatalf("skalla-coord: %v", err)
			}
			cluster.UseCatalog(cat)
			fmt.Fprintf(os.Stderr, "loaded catalog %s (%d sites, %d FDs)\n",
				cfg.catalog, len(cat.Sites), len(cat.FDs))
		}
	}

	if cfg.generate != "" {
		if err := doGenerate(cluster, cfg.generate, cfg.detail, cfg.rows, cfg.customers, cfg.seed); err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
		if cfg.catalog != "" {
			if err := cluster.Catalog().SaveFile(cfg.catalog); err != nil {
				log.Fatalf("skalla-coord: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote catalog %s\n", cfg.catalog)
		}
	}

	if cfg.status {
		for _, st := range cluster.Status(cfg.detail) {
			fmt.Println(st)
		}
		return
	}

	if cfg.serveAddr != "" {
		runServe(cluster, sink, cfg.serveAddr, cfg.serve)
		return
	}

	if cfg.repl {
		runREPL(cluster, opts, cfg.maxRows)
		return
	}

	if cfg.sql != "" {
		rel, err := cluster.SQL(cfg.sql, opts)
		if err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
		printSQLResult(rel, cfg.maxRows)
		writeTrace(sink, cfg.trace)
		return
	}

	if cfg.base == "" || len(cfg.mds) == 0 {
		fmt.Println("skalla-coord: no query given (-base and at least one -md, or -sql); done")
		return
	}
	q, err := buildQuery(cfg.base, cfg.where, cfg.mds)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}

	if cfg.explain {
		plan, err := cluster.Explain(q, cfg.detail, opts)
		if err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
		fmt.Print(plan.Explain())
		return
	}

	res, err := cluster.Query(q, cfg.detail, opts)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}
	writeTrace(sink, cfg.trace)
	if cfg.statsJSON {
		// Machine-readable mode: the stats JSON is the whole stdout
		// payload, so scripts can pipe it straight into a parser.
		out, err := res.Stats.JSON()
		if err != nil {
			log.Fatalf("skalla-coord: %v", err)
		}
		fmt.Printf("%s\n", out)
		return
	}
	if cfg.profile {
		fmt.Print(skalla.RenderAnalyze(res.Plan, res.Stats, true))
	} else {
		fmt.Print(res.Plan.Explain())
	}
	fmt.Println()
	res.Relation.SortBy(q.Keys()...)
	fmt.Print(res.Relation.Format(cfg.maxRows))
	fmt.Println()
	fmt.Print(res.Stats)
	if res.Stats.Partial() {
		// Coverage details are already in the stats table above.
		fmt.Fprintf(os.Stderr, "WARNING: partial result — lost sites: %s\n",
			strings.Join(res.Stats.LostSites(), ", "))
	}
}

// runServe turns the process into the long-lived concurrent query
// service: /query next to the debug endpoints on one listener, readiness
// gated on site fanout health, graceful exit on SIGTERM/SIGINT.
func runServe(cluster *skalla.Cluster, sink *obs.Obs, addr string, cfg skalla.ServeConfig) {
	svc, err := skalla.NewQueryService(cluster, cfg)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}
	defer svc.Close()
	srv, err := obs.ServeDebug(addr, sink)
	if err != nil {
		log.Fatalf("skalla-coord: %v", err)
	}
	defer srv.Close()
	sink.Health.SetCheck(svc.CheckReady)
	srv.Handle("/query", svc.Handler())
	fmt.Fprintf(os.Stderr, "serving queries on http://%s/query (%d concurrent, queue %d; /metrics /healthz /readyz)\n",
		srv.Addr(), cfg.MaxConcurrent, cfg.QueueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	// Flip readiness first so load balancers stop routing here, then let
	// the deferred closes release connections.
	sink.Health.SetNotReady("draining")
	fmt.Fprintf(os.Stderr, "received %v; draining and shutting down\n", s)
}

// writeTrace dumps the collected spans as Chrome trace_event JSON.
func writeTrace(sink *obs.Obs, path string) {
	if sink == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("skalla-coord: trace: %v", err)
	}
	if err := sink.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		log.Fatalf("skalla-coord: trace: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("skalla-coord: trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote trace %s (%d spans)\n", path, sink.Tracer.Len())
}

// runREPL reads SQL statements from stdin and executes them against the
// cluster until EOF or \q.
func runREPL(cluster *skalla.Cluster, opts skalla.Options, maxRows int) {
	fmt.Println("skalla> interactive SQL shell — SELECT ... FROM ... {GROUP|CUBE|ROLLUP} BY ...; \\q quits")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("skalla> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == "\\q" || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		default:
			start := time.Now()
			rel, err := cluster.SQL(line, opts)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printSQLResult(rel, maxRows)
			fmt.Printf("(%d rows, %s)\n", rel.Len(), time.Since(start).Round(time.Millisecond))
		}
		fmt.Print("skalla> ")
	}
}

// printSQLResult prints one SQL result. Ordinary relations are sorted on
// the first column so output is stable regardless of map iteration order;
// EXPLAIN reports are already ordered and must not be alphabetized, so
// their lines print verbatim.
func printSQLResult(rel *skalla.Relation, maxRows int) {
	if rel.Schema.Len() == 1 && rel.Schema.Names()[0] == skalla.PlanCol {
		for _, row := range rel.Rows {
			fmt.Println(row[0].String())
		}
		return
	}
	rel.SortBy(rel.Schema.Names()[0])
	fmt.Print(rel.Format(maxRows))
}

func parseOpts(s string) (skalla.Options, error) {
	switch s {
	case "all":
		return skalla.AllOptimizations, nil
	case "none", "":
		return skalla.NoOptimizations, nil
	}
	var o skalla.Options
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "coalesce":
			o.Coalesce = true
		case "group-sites":
			o.GroupReduceSites = true
		case "group-coord":
			o.GroupReduceCoord = true
		case "sync":
			o.SyncReduce = true
		default:
			return o, fmt.Errorf("unknown optimization %q", part)
		}
	}
	return o, nil
}

func doGenerate(cluster *skalla.Cluster, kind, rel string, rows, customers int, seed int64) error {
	var params map[string]int64
	switch kind {
	case "tpcr":
		cfg := tpcr.Config{Rows: rows, Customers: customers, Seed: seed}
		params = tpcr.GenParams(cfg)
		if err := tpcr.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
			return err
		}
	case "ipflow":
		cfg := ipflow.Config{Flows: rows, Routers: cluster.NumSites(), ASPartitioned: true, Seed: seed}
		params = ipflow.GenParams(cfg)
		if err := ipflow.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), cfg); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown generator %q", kind)
	}
	counts, err := cluster.Generate(rel, kind, params)
	if err != nil {
		return err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	fmt.Fprintf(os.Stderr, "generated %d rows across %d sites\n", total, len(counts))
	return nil
}

func buildQuery(base, where string, mds mdFlags) (skalla.Query, error) {
	cols := strings.Split(base, ",")
	for i := range cols {
		cols[i] = strings.TrimSpace(cols[i])
	}
	b := skalla.NewQuery(cols...)
	if where != "" {
		b = b.Where(where)
	}
	// An -md value is "spec, ... ; condition", read on the query
	// language's parser.
	for _, md := range mds {
		p := expr.NewParser(md)
		var list skalla.AggList
		for more := true; more; more = p.Op(",") {
			spec, err := agg.ReadSpec(p)
			if err != nil {
				return skalla.Query{}, fmt.Errorf("bad -md %q: %w", md, err)
			}
			list = append(list, spec)
		}
		if !p.Op(";") {
			return skalla.Query{}, p.Errorf("bad -md %q, want \"aggs ; condition\"", md)
		}
		b = b.MD(list, p.Text(p.Pos(), len(md)))
	}
	return b.Build()
}
