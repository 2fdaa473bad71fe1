package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/skalla"
)

// ServeConfig parameterizes the closed-loop concurrent-serving
// experiment: Concurrency workers each keep exactly one query in flight
// against a bounded QueryService until Queries have been issued, so
// offered load tracks service capacity the way a well-behaved upstream
// does, and admission rejections measure deliberate overload.
type ServeConfig struct {
	// Sites, Rows, Customers, Seed shape the TPCR dataset (defaults:
	// 4 sites, 8000 rows, 400 customers, seed 1).
	Sites     int
	Rows      int
	Customers int
	Seed      int64
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int
	// Queries is the total number issued across all workers (default 64).
	Queries int
	// MaxConcurrent / QueueDepth / QueueTimeout bound the service (see
	// skalla.ServeConfig). Defaults: half the workers, a 2-deep queue,
	// 50ms — an intentionally undersized service, so the run exercises
	// queueing and typed rejection, not just throughput.
	MaxConcurrent int
	QueueDepth    int
	QueueTimeout  time.Duration
}

func (c ServeConfig) defaults() ServeConfig {
	if c.Sites == 0 {
		c.Sites = 4
	}
	if c.Rows == 0 {
		c.Rows = 8000
	}
	if c.Customers == 0 {
		c.Customers = 400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
	if c.Queries == 0 {
		c.Queries = 64
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = (c.Concurrency + 1) / 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 50 * time.Millisecond
	}
	return c
}

// serveQueryMix is the workload: the experiment cycles through it so
// concurrent executions overlap distinct plans, not one cached shape.
var serveQueryMix = []string{
	"SELECT RegionKey, count(*) AS cnt, avg(ExtendedPrice) AS avg_price FROM tpcr GROUP BY RegionKey",
	"SELECT MktSegment, count(*) AS lines FROM tpcr GROUP BY MktSegment",
	"SELECT RegionKey, MktSegment, sum(Quantity) AS qty FROM tpcr GROUP BY RegionKey, MktSegment",
	"SELECT RegionKey, sum(ExtendedPrice) AS revenue FROM tpcr WHERE Discount > 0.02 GROUP BY RegionKey",
}

// ServeResult summarizes one closed-loop run. Latency percentiles cover
// completed queries only; rejected and shed submissions are counted
// separately (they are the admission-control signal, not service time).
type ServeResult struct {
	Config    ServeConfig
	Completed int
	Rejected  int // typed admission rejections (retried after backoff)
	Shed      int // refused end-to-end by the sites (overload / draining)
	Failed    int // any other error
	Elapsed   time.Duration
	P50       time.Duration
	P99       time.Duration
	// ProfileP50 / ProfileP99 are the server-side execution-wall
	// quantiles from the serve.query_ns histogram that the profiling
	// pipeline feeds. Unlike P50/P99 (measured at the client, queueing
	// included) they cover execution only, so the gap between the two
	// pairs is the admission/queue wait.
	ProfileP50 time.Duration
	ProfileP99 time.Duration
	// Profiled counts the queries the coordinator published a profile
	// tree for (every served query is QueryID-tagged in serve mode).
	Profiled int
	// Stacks names the client stack queries reached each site through.
	Stacks string
}

// QPS is the completed-query throughput over the whole run.
func (r *ServeResult) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// String renders the run the way the figure tables do.
func (r *ServeResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent serving (closed loop): %d workers, %d queries, service %d slots + %d queue\n",
		r.Config.Concurrency, r.Config.Queries, r.Config.MaxConcurrent, r.Config.QueueDepth)
	fmt.Fprintf(&b, "  completed %d  rejected %d  shed %d  failed %d\n",
		r.Completed, r.Rejected, r.Shed, r.Failed)
	fmt.Fprintf(&b, "  %.1f qps   p50 %v   p99 %v   elapsed %v\n",
		r.QPS(), r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  profiles: %d queries   exec p50 %v   exec p99 %v\n",
		r.Profiled, r.ProfileP50.Round(time.Microsecond), r.ProfileP99.Round(time.Microsecond))
	return b.String()
}

// Metrics flattens the run for BENCH_results.json under figure "serve".
func (r *ServeResult) Metrics() Results {
	return Results{"serve": {
		"concurrency":     float64(r.Config.Concurrency),
		"queries":         float64(r.Config.Queries),
		"completed":       float64(r.Completed),
		"rejected":        float64(r.Rejected),
		"shed":            float64(r.Shed),
		"failed":          float64(r.Failed),
		"qps":             r.QPS(),
		"p50_ms":          float64(r.P50) / float64(time.Millisecond),
		"p99_ms":          float64(r.P99) / float64(time.Millisecond),
		"profile.queries": float64(r.Profiled),
		"profile.p50_ms":  float64(r.ProfileP50) / float64(time.Millisecond),
		"profile.p99_ms":  float64(r.ProfileP99) / float64(time.Millisecond),
	}}
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// durations by the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// ServeExperiment runs the closed-loop concurrent-serving benchmark on an
// in-process cluster: every worker keeps one query in flight until the
// budget is spent, classifying each completion as served, rejected at
// admission, shed by the sites, or failed.
func ServeExperiment(cfg ServeConfig) (*ServeResult, error) {
	cfg = cfg.defaults()
	// The sink collects the serve-mode profiling pipeline's output:
	// per-query execution-wall histogram and published profiles.
	sink := obs.New()
	cluster, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: cfg.Sites, Settings: skalla.Settings{Obs: sink}})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	tc := tpcr.Config{Rows: cfg.Rows, Customers: cfg.Customers, Seed: cfg.Seed}
	if _, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(tc)); err != nil {
		return nil, err
	}
	if err := tpcr.FillCatalog(cluster.Catalog(), cluster.SiteIDs(), tc); err != nil {
		return nil, err
	}
	svc, err := skalla.NewQueryService(cluster, skalla.ServeConfig{
		MaxConcurrent: cfg.MaxConcurrent,
		QueueDepth:    cfg.QueueDepth,
		QueueTimeout:  cfg.QueueTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	res := &ServeResult{Config: cfg, Stacks: svc.Stacks()}
	var next int64
	var mu sync.Mutex
	var latencies []time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= cfg.Queries {
					return
				}
				q := serveQueryMix[i%len(serveQueryMix)]
				// A rejection is counted and retried after a short
				// backoff — the closed-loop upstream a 429 asks for —
				// so the budget measures served queries, with the
				// rejection count as the overload signal.
				for {
					t0 := time.Now()
					_, err := svc.Query(context.Background(), q)
					lat := time.Since(t0)
					mu.Lock()
					switch {
					case err == nil:
						res.Completed++
						latencies = append(latencies, lat)
					case errors.Is(err, skalla.ErrAdmission):
						res.Rejected++
					case errors.Is(err, transport.ErrOverloaded), errors.Is(err, transport.ErrDraining):
						res.Shed++
					default:
						res.Failed++
					}
					mu.Unlock()
					if err == nil || !errors.Is(err, skalla.ErrAdmission) {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = percentile(latencies, 50)
	res.P99 = percentile(latencies, 99)
	h := sink.Metrics.Histogram("serve.query_ns").Snapshot()
	res.ProfileP50 = time.Duration(h.Quantile(0.50))
	res.ProfileP99 = time.Duration(h.Quantile(0.99))
	res.Profiled = int(sink.Metrics.CounterValue("coord.queries_profiled"))
	if res.Completed == 0 {
		return res, fmt.Errorf("bench: serve experiment completed no queries (%d rejected, %d shed, %d failed)",
			res.Rejected, res.Shed, res.Failed)
	}
	return res, nil
}
