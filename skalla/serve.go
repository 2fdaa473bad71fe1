package skalla

// This file is the concurrent query service behind `skalla-coord -serve`:
// many SQL queries at once over one shared site fleet, with bounded
// admission (typed rejections instead of unbounded queueing). The site
// clients are the cluster's own: their connection pools bound each
// site's in-flight requests and confine a query's failure or
// cancellation to the connections its own calls borrowed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	sqlfe "repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/value"
)

// ErrAdmission is the sentinel every admission refusal matches with
// errors.Is: the service declined to start (or keep queueing) a query
// because the cluster is saturated. It is a load signal, not a failure of
// the query itself — the caller should shed upstream (HTTP 429), back
// off, and retry later.
var ErrAdmission = errors.New("skalla: admission rejected")

// AdmissionError is the concrete admission refusal, carrying why the
// query was turned away. errors.Is(err, ErrAdmission) matches it.
type AdmissionError struct {
	// Reason is a human-readable refusal cause ("queue full", "queue
	// wait exceeded 2s", ...).
	Reason string
}

// Error implements error.
func (e *AdmissionError) Error() string { return "skalla: admission rejected: " + e.Reason }

// Is makes errors.Is(err, ErrAdmission) true for every admission
// refusal without forcing callers through errors.As.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmission }

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
// with its own epoch, so executions are isolated while sharing the site
// fleet, admission, and the cluster's pooled client per site.
//
// Admission bounds the executions against the shared fleet: at most
// MaxConcurrent run at once, a queue of QueueDepth absorbs bursts, and
// everything beyond that is rejected fast with a typed ErrAdmission
// instead of piling latency onto queries already running. The per-site
// bound is the cluster's — each site client's pool holds at most a fixed
// number of connections — so calls queue at a slow site without
// stalling admission globally.
type QueryService struct {
	cluster *Cluster
	cfg     ServeConfig
	obs     *obs.Obs

	slots chan struct{} // running-execution tokens
	seq   atomic.Int64  // execution sequence, for unique epochs
	mu    sync.Mutex
	//lint:guarded-by mu
	queued int
}

// NewQueryService builds the concurrent query service on top of an
// existing cluster (NewLocalCluster, flat or multi-tier, or ConnectWith). The
// cluster provides the site fleet and its clients, the catalog, and the
// fault-tolerance settings; cfg bounds the concurrency.
func NewQueryService(c *Cluster, cfg ServeConfig) (*QueryService, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.Opts == nil {
		cfg.Opts = &AllOptimizations
	}
	return &QueryService{cluster: c, cfg: cfg, obs: c.obs, slots: make(chan struct{}, cfg.MaxConcurrent)}, nil
}

// Close releases nothing: the service holds no connections of its own,
// and the cluster's are closed with the cluster.
func (s *QueryService) Close() error { return nil }

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

	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	// Per-execution isolation: the cluster's pooled clients (cancellation
	// confined to borrowed connections) driven by a private coordinator
	// under a unique epoch.
	coord := s.cluster.coord.Derive(s.cluster.clients...)
	coord.Epoch = s.nextEpoch()
	// The unique serve epoch doubles as the query ID: every served query
	// is profiled, its statistics published to the shared obs sink
	// (/profiles on the coordinator daemon) by the coordinator itself.
	coord.QueryID = coord.Epoch
	view := *s.cluster
	view.coord = coord

	start := time.Now()
	rel, err := view.sqlStatement(ctx, st, *s.cfg.Opts)
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

// nextEpoch derives a unique execution epoch, which is also the served
// query's ID. Concurrent executions of the same plan would otherwise
// derive identical epochs (the epoch is a deterministic plan hash, which
// is what lets a restarted coordinator find its checkpoint), share one
// checkpoint key and profile under one query ID.
func (s *QueryService) nextEpoch() string {
	return fmt.Sprintf("serve-c%06d", s.seq.Add(1))
}

// admit blocks until the caller may start an execution, the queue policy
// rejects it, or ctx is done. On success the returned release function
// must be called exactly once when the execution finishes. On refusal the
// error matches errors.Is(err, ErrAdmission); a caller-cancelled ctx
// surfaces as the context error instead. It publishes the "sched.*"
// counters, the "sched.running"/"sched.queued" gauges and admission
// events.
func (s *QueryService) admit(ctx context.Context) (release func(), err error) {
	o := s.obs
	select {
	case s.slots <- struct{}{}:
		return s.admitted(), nil
	default:
	}

	// Saturated: queue if the queue has room, else fail fast.
	s.mu.Lock()
	if s.queued >= s.cfg.QueueDepth {
		queued := s.queued
		s.mu.Unlock()
		o.Count("sched.rejected", 1)
		o.Event(obs.EventAdmission, "", "query rejected: scheduler saturated and queue full",
			map[string]string{"reason": "queue-full", "running": fmt.Sprint(len(s.slots)), "queued": fmt.Sprint(queued)})
		return nil, &AdmissionError{Reason: fmt.Sprintf("%d running, queue full (%d waiting)", len(s.slots), queued)}
	}
	s.queued++
	o.SetGauge("sched.queued", int64(s.queued))
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		o.SetGauge("sched.queued", int64(s.queued))
		s.mu.Unlock()
	}()

	var timeout <-chan time.Time
	if s.cfg.QueueTimeout > 0 {
		t := time.NewTimer(s.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.slots <- struct{}{}:
		return s.admitted(), nil
	case <-timeout:
		o.Count("sched.queue_timeouts", 1)
		o.Event(obs.EventAdmission, "", "queued query timed out waiting for an execution slot",
			map[string]string{"reason": "queue-timeout", "running": fmt.Sprint(len(s.slots))})
		return nil, &AdmissionError{Reason: fmt.Sprintf("queue wait exceeded %v", s.cfg.QueueTimeout)}
	case <-ctx.Done():
		return nil, fmt.Errorf("skalla: admission wait: %w", ctx.Err())
	}
}

// admitted records a successful admission and builds its release func.
func (s *QueryService) admitted() func() {
	o := s.obs
	o.Count("sched.admitted", 1)
	o.SetGauge("sched.running", int64(len(s.slots)))
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.slots
			o.Count("sched.completed", 1)
			o.SetGauge("sched.running", int64(len(s.slots)))
		})
	}
}

// CheckReady is the coordinator's readiness gate for /readyz: it probes
// every site's liveness in parallel (over each site's probe connection,
// never a pooled query connection, so a saturated pool does not read as
// an unhealthy site). In strict mode every site must answer — a query
// fanning out would fail anyway; with AllowPartial one reachable site
// suffices. Install via obs.Health.SetCheck.
func (s *QueryService) CheckReady() (bool, string) {
	c := s.cluster
	timeout := c.coord.CallTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	errs := c.eachSite(func(i int) error { return c.sites[i].Ping(ctx) })
	reachable := 0
	var firstDown string
	for i, err := range errs {
		if err == nil {
			reachable++
		} else if firstDown == "" {
			firstDown = fmt.Sprintf("site %s unreachable: %v", c.ids[i], err)
		}
	}
	switch {
	case reachable == len(errs):
		return true, ""
	case c.coord.AllowPartial && reachable > 0:
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
	case errors.Is(err, ErrAdmission):
		kind, code = "admission", http.StatusTooManyRequests
	case errors.Is(err, transport.ErrOverloaded), errors.Is(err, transport.ErrDraining),
		errors.Is(err, transport.ErrBudgetExhausted):
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
		return v.Float()
	case v.K == value.KindString:
		return v.S
	default:
		return v.Int()
	}
}
