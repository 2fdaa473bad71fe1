package skalla

// This file is the concurrent query service behind `skalla-coord -serve`:
// many SQL queries at once over one shared site fleet, with bounded
// admission (typed rejections instead of unbounded queueing), per-site
// connection pooling (concurrent executions do not serialize on one TCP
// stream), per-site AIMD backpressure driven by shed responses, and
// per-query cancellation isolation (one query's failure or cancellation
// never tears down a sibling's in-flight site calls).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	sqlfe "repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/value"
)

// ErrAdmission is re-exported so servers embedding the query service can
// classify refusals with errors.Is without importing internal/core.
var ErrAdmission = core.ErrAdmission

// ServeConfig tunes the concurrent query service.
type ServeConfig struct {
	// MaxConcurrent is how many queries may execute at once (default 4).
	MaxConcurrent int
	// QueueDepth is how many queries may wait for an execution slot
	// before new arrivals are rejected with ErrAdmission (default 0:
	// fail fast when saturated).
	QueueDepth int
	// QueueTimeout bounds how long a queued query waits for a slot (0 =
	// as long as its own context allows).
	QueueTimeout time.Duration
	// Backpressure is what concurrent queries share per site: the
	// connection-pool size and AIMD window ceiling, and the circuit
	// breaker (open breakers surface in /readyz). Unset fields take
	// transport.DefaultBackpressure.
	Backpressure
	// QueryTimeout bounds each query's whole execution (0 = none).
	QueryTimeout time.Duration
	// SlowQuery, when positive, emits an obs slow-query event (and counts
	// "serve.slow_queries") for every query whose wall time reaches it.
	SlowQuery time.Duration
	// Opts selects the distributed optimizations; nil means all of them
	// (a pointer, because the zero Options is NoOptimizations).
	Opts *Options
}

// QueryService runs concurrent SQL queries against one cluster's sites.
// Construct with NewQueryService; serve over HTTP via Handler or call
// Query directly. Each admitted query executes on its own coordinator
// with its own epoch and its own leased connections, so executions are
// isolated while sharing the site fleet, the admission scheduler, and the
// per-site backpressure state.
type QueryService struct {
	cluster *Cluster
	sched   *core.Scheduler
	sites   []*transport.Site
	cfg     ServeConfig
	obs     *obs.Obs
}

// NewQueryService builds the concurrent query service on top of an
// existing cluster (NewLocalCluster or ConnectWith). The cluster provides
// the site fleet, catalog, and fault-tolerance settings; cfg bounds the
// concurrency. Sessions and multi-tier clusters are not supported.
func NewQueryService(c *Cluster, cfg ServeConfig) (*QueryService, error) {
	if len(c.specs) != len(c.ids) {
		return nil, fmt.Errorf("skalla: cluster cannot serve concurrently (no per-site client specs)")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	cfg.Backpressure = cfg.Backpressure.WithDefaults()
	if cfg.Opts == nil {
		cfg.Opts = &AllOptimizations
	}
	s := &QueryService{cluster: c, cfg: cfg, obs: c.obs}
	s.sched = core.NewScheduler(core.SchedulerConfig{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		QueueTimeout:  cfg.QueueTimeout,
		Obs:           c.obs,
	})
	// The served stack is the cluster's own with the layers concurrent
	// executions share — pools, gate, breaker — added on top.
	for _, spec := range c.specs {
		spec.Backpressure = cfg.Backpressure
		site, err := transport.NewSite(spec)
		if err != nil {
			return nil, fmt.Errorf("skalla: %w", err)
		}
		s.sites = append(s.sites, site)
	}
	return s, nil
}

// Close releases the service's pooled connections. The underlying
// cluster is not closed.
func (s *QueryService) Close() error {
	var first error
	for _, site := range s.sites {
		if err := site.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stacks names, one line per site, the client stack queries reach the
// site through, for start-up logs.
func (s *QueryService) Stacks() string { return stackLines(s.sites) }

// Scheduler exposes the admission scheduler (tests, metrics).
func (s *QueryService) Scheduler() *core.Scheduler { return s.sched }

// Query admits and executes one SQL statement. Saturation surfaces as an
// error matching errors.Is(err, ErrAdmission); a query the sites refused
// end-to-end matches transport.ErrOverloaded / transport.ErrDraining.
// Results without an ORDER BY are sorted on every output column, so an
// admitted query's result bytes are deterministic under any concurrency.
func (s *QueryService) Query(ctx context.Context, query string) (*Relation, error) {
	st, err := sqlfe.Parse(query)
	if err != nil {
		return nil, err // refused before admission: parsing burns no slot
	}

	release, err := s.sched.Admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// Per-execution isolation: a private view of every site (shared pools,
	// gate and breaker; private byte accounting; cancellation confined to
	// borrowed connections), driven by a private coordinator under a
	// unique epoch.
	clients := make([]transport.Client, len(s.sites))
	for i, site := range s.sites {
		cl, err := site.Client()
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}
	coord := s.cluster.coord.Derive(clients...)
	coord.Epoch = s.sched.NextEpoch("serve")
	// The unique serve epoch doubles as the query ID: every served query
	// is profiled, its statistics published to the shared obs sink
	// (/profiles on the coordinator daemon) by the coordinator itself.
	coord.QueryID = coord.Epoch

	view := &Cluster{AnalyzeTiming: s.cluster.AnalyzeTiming, ids: s.cluster.ids, clients: clients, coord: coord, cat: s.cluster.cat, obs: s.cluster.obs}
	start := time.Now()
	rel, err := view.SQLContext(ctx, query, *s.cfg.Opts)
	wall := time.Since(start)
	s.obs.Observe("serve.query_ns", wall.Nanoseconds())
	if s.cfg.SlowQuery > 0 && wall >= s.cfg.SlowQuery {
		s.obs.Count("serve.slow_queries", 1)
		s.obs.Event(obs.EventSlowQuery, "", "query exceeded the slow-query threshold",
			map[string]string{
				"query_id":     coord.QueryID,
				"wall_ms":      fmt.Sprint(wall.Milliseconds()),
				"threshold_ms": fmt.Sprint(s.cfg.SlowQuery.Milliseconds()),
			})
	}
	if err != nil {
		s.obs.Count("serve.queries_failed", 1)
		return nil, err
	}
	// Explain output is a pre-ordered report, never sorted; everything
	// else without an ORDER BY is sorted for deterministic result bytes.
	if len(st.OrderBy) == 0 && !st.Explain {
		if err := rel.SortBy(rel.Schema.Names()...); err != nil {
			return nil, err
		}
	}
	s.obs.Count("serve.queries_ok", 1)
	return rel, nil
}

// CheckReady is the coordinator's readiness gate for /readyz: it probes
// every site's liveness in parallel (a dedicated probe connection per
// site, never a pooled query connection, so a saturated pool does not
// read as an unhealthy site). In strict mode every site must answer — a
// query fanning out would fail anyway; with AllowPartial one reachable
// site suffices. Install via obs.Health.SetCheck.
func (s *QueryService) CheckReady() (bool, string) {
	timeout := s.cluster.coord.CallTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	errs := make([]error, len(s.sites))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var done = make(chan int, len(s.sites))
	for i := range s.sites {
		go func(i int) {
			errs[i] = s.sites[i].Ping(ctx)
			done <- i
		}(i)
	}
	for range s.sites {
		<-done
	}
	reachable := 0
	var firstDown string
	for i, err := range errs {
		// An open circuit breaker counts as down even when the probe
		// connection answers: queries to the site are failing fast, so
		// advertising readiness would route traffic into rejections.
		if err == nil {
			if br := s.sites[i].Breaker(); br != nil && br.State() == transport.BreakerOpen {
				if firstDown == "" {
					firstDown = fmt.Sprintf("site %s circuit breaker open", s.cluster.ids[i])
				}
				continue
			}
			reachable++
		} else if firstDown == "" {
			firstDown = fmt.Sprintf("site %s unreachable: %v", s.cluster.ids[i], err)
		}
	}
	switch {
	case reachable == len(s.sites):
		return true, ""
	case s.cluster.coord.AllowPartial && reachable > 0:
		return true, ""
	default:
		return false, firstDown
	}
}

// resultJSON is the deterministic HTTP result shape: column names in
// select-list order, rows as arrays of JSON scalars (NULL → null).
type resultJSON struct {
	Cols []string `json:"cols"`
	Rows [][]any  `json:"rows"`
}

// errorJSON is the HTTP error shape; Kind classifies machine-readably
// ("parse", "admission", "shed", "timeout", "internal").
type errorJSON struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// Handler serves the query endpoint: GET with ?q= or POST with the SQL
// statement as the body (or ?q=). Responses are deterministic JSON; load
// conditions map onto status codes the way an upstream load balancer
// expects — 429 for admission rejections (back off and retry), 503 for
// queries the sites shed end-to-end, 504 for deadline-exceeded queries.
func (s *QueryService) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var query string
		switch r.Method {
		case http.MethodGet:
			query = r.URL.Query().Get("q")
		case http.MethodPost:
			if q := r.URL.Query().Get("q"); q != "" {
				query = q
			} else {
				body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
				if err != nil {
					writeQueryError(w, fmt.Errorf("read body: %w", err))
					return
				}
				query = string(body)
			}
		default:
			w.Header().Set("Allow", "GET, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.obs.Count("serve.http_requests", 1)
		if strings.TrimSpace(query) == "" {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty query", Kind: "parse"})
			return
		}
		rel, err := s.Query(r.Context(), query)
		if err != nil {
			s.obs.Count("serve.http_errors", 1)
			writeQueryError(w, err)
			return
		}
		out := resultJSON{Cols: rel.Schema.Names(), Rows: make([][]any, len(rel.Rows))}
		for i, row := range rel.Rows {
			jr := make([]any, len(row))
			for j, v := range row {
				jr[j] = valueJSON(v)
			}
			out.Rows[i] = jr
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// writeQueryError maps a query error onto its HTTP classification.
func writeQueryError(w http.ResponseWriter, err error) {
	var kind string
	var code int
	switch {
	case errors.Is(err, core.ErrAdmission):
		kind, code = "admission", http.StatusTooManyRequests
	case errors.Is(err, transport.ErrOverloaded), errors.Is(err, transport.ErrDraining),
		errors.Is(err, transport.ErrBreakerOpen), errors.Is(err, transport.ErrBudgetExhausted):
		kind, code = "shed", http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		kind, code = "timeout", http.StatusGatewayTimeout
	case isParseError(err):
		kind, code = "parse", http.StatusBadRequest
	default:
		kind, code = "internal", http.StatusInternalServerError
	}
	writeJSON(w, code, errorJSON{Error: err.Error(), Kind: kind})
}

// isParseError reports whether err came from the SQL front-end (a caller
// mistake, not a server condition).
func isParseError(err error) bool {
	var pe *sqlfe.ParseError
	return errors.As(err, &pe)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

// valueJSON converts one value into its JSON scalar.
func valueJSON(v value.V) any {
	switch {
	case v.IsNull():
		return nil
	case v.K == value.KindFloat:
		return v.F
	case v.K == value.KindString:
		return v.S
	default:
		return v.I
	}
}
