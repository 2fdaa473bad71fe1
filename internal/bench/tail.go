package bench

// This file is the tail-tolerance experiment behind `skalla-bench
// -experiment tail`: the same query repeated over a cluster whose site
// transports are chaos-injected with seeded heavy-tail latency, once
// without and once with hedging against a clean replica. Hedging must
// cut the p99 round latency without changing a single result byte —
// duplicated round evaluation is idempotent — and every hedge must fit
// inside the shared retry budget.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
)

// TailConfig parameterizes the tail-tolerance experiment.
type TailConfig struct {
	// Sites, Rows, Customers, Seed shape the TPCR dataset (defaults:
	// 4 sites, 8000 rows, 400 customers, seed 1).
	Sites     int
	Rows      int
	Customers int
	Seed      int64
	// Queries is how many times the experiment query is executed per
	// variant (default 40); latency percentiles come from these runs.
	Queries int
	// TailP is the per-call probability that a site call straggles
	// (default 0.12); TailDelay is the injected straggler latency
	// (default 50ms). Each site's first connection draws the same seeded
	// fault sequence in both variants, so hedged and unhedged runs start
	// from the same stragglers; a primary redialed after losing a hedge
	// draws the site's next seed.
	TailP     float64
	TailDelay time.Duration
	// Resilience tunes the hedged variant: HedgeDelay is the fixed hedge
	// trigger (default 5ms — a primary call unanswered that long races the
	// replica), and RetryBudget / RetryBudgetBurst bound the speculative
	// sends (defaults 0.5 / 20). Hedge is implied.
	transport.Resilience
}

func (c TailConfig) defaults() TailConfig {
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
	if c.Queries == 0 {
		c.Queries = 40
	}
	if c.TailP == 0 {
		c.TailP = 0.12
	}
	if c.TailDelay == 0 {
		c.TailDelay = 50 * time.Millisecond
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 5 * time.Millisecond
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.5
	}
	if c.RetryBudgetBurst == 0 {
		c.RetryBudgetBurst = 20
	}
	c.Hedge = true
	return c
}

// TailResult summarizes the two variants of one run.
type TailResult struct {
	Config TailConfig
	// UnhedgedP50/P99 and HedgedP50/P99 are per-query wall-latency
	// quantiles over Config.Queries executions of each variant.
	UnhedgedP50 time.Duration
	UnhedgedP99 time.Duration
	HedgedP50   time.Duration
	HedgedP99   time.Duration
	// Hedges / HedgeWins count speculative launches and the ones whose
	// duplicate answered first; BudgetDenied counts hedge attempts the
	// retry budget refused.
	Hedges       int64
	HedgeWins    int64
	BudgetDenied int64
	// Stacks names each variant's client stack, one line per site.
	Stacks string
}

// P99Speedup is the headline number: how many times faster the p99
// query latency is with hedging on.
func (r *TailResult) P99Speedup() float64 {
	if r.HedgedP99 <= 0 {
		return 0
	}
	return float64(r.UnhedgedP99) / float64(r.HedgedP99)
}

// String renders the run the way the figure tables do.
func (r *TailResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tail tolerance (hedged replica requests): %d sites, %d queries, straggler p=%.2f delay=%s, hedge after %s\n",
		r.Config.Sites, r.Config.Queries, r.Config.TailP, r.Config.TailDelay, r.Config.HedgeDelay)
	t := &table{
		title:  "tail latency",
		header: []string{"variant", "p50", "p99"},
	}
	t.add("hedging off", r.UnhedgedP50.Round(time.Microsecond).String(), r.UnhedgedP99.Round(time.Microsecond).String())
	t.add("hedging on", r.HedgedP50.Round(time.Microsecond).String(), r.HedgedP99.Round(time.Microsecond).String())
	b.WriteString(t.String())
	fmt.Fprintf(&b, "p99 speedup %.2fx; %d hedges (%d won the race, %d denied by the retry budget); results byte-identical\n",
		r.P99Speedup(), r.Hedges, r.HedgeWins, r.BudgetDenied)
	return b.String()
}

// Metrics flattens the run into the benchmark artifact.
func (r *TailResult) Metrics() Results {
	return Results{"tail": {
		"queries":         float64(r.Config.Queries),
		"unhedged_p50_ms": msF(r.UnhedgedP50),
		"unhedged_p99_ms": msF(r.UnhedgedP99),
		"hedged_p50_ms":   msF(r.HedgedP50),
		"hedged_p99_ms":   msF(r.HedgedP99),
		"p99_speedup":     r.P99Speedup(),
		"hedges":          float64(r.Hedges),
		"hedge_wins":      float64(r.HedgeWins),
		"budget_denied":   float64(r.BudgetDenied),
	}}
}

// tailCluster builds the shared dataset once: one engine per logical
// site holding its TPCR partition, plus the partitioning catalog. The
// chaos-injected primary and a clean replica both answer from a site's
// engine, matching a replicated deployment where only one replica is slow.
func tailCluster(cfg TailConfig) ([]*site.Engine, *catalog.Catalog, error) {
	tc := tpcr.Config{Rows: cfg.Rows, Customers: cfg.Customers, Seed: cfg.Seed}
	sites := make([]*site.Engine, cfg.Sites)
	ids := make([]string, cfg.Sites)
	for i := range sites {
		ids[i] = fmt.Sprintf("site%d", i)
		part, err := tpcr.GeneratePartition(tc, i, cfg.Sites)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: tail partition %d: %w", i, err)
		}
		sites[i] = site.NewEngine(ids[i])
		sites[i].Load("tpcr", part)
	}
	cat := catalog.New(ids...)
	if err := tpcr.FillCatalog(cat, ids, tc); err != nil {
		return nil, nil, fmt.Errorf("bench: tail catalog: %w", err)
	}
	return sites, cat, nil
}

// tailSites assembles one variant's client stacks, pooled as every stack
// a Site builds is: every site's primary replica is armed with a seeded
// heavy-tail fault schedule — seeded by site index, and drawn once per
// call the primary receives on any of its connections, so the primary
// faces the same stragglers in both variants — and, when hedged, a clean
// replica of the same engine answers hedges, which are drawn from one
// budget and counted in sink.
func tailSites(cfg TailConfig, sites []*site.Engine, hedged bool, sink *obs.Obs) ([]*transport.Site, []transport.Client, error) {
	budget := cfg.NewBudget(sink)
	built := make([]*transport.Site, len(sites))
	clients := make([]transport.Client, len(sites))
	for i, eng := range sites {
		seed := cfg.Seed + int64(i)
		primary := transport.NewChaos()
		primary.SetTailLatency(seed, cfg.TailP, cfg.TailDelay)
		spec := transport.SiteSpec{ID: eng.ID(), Replicas: []transport.Replica{{Handler: eng, Chaos: primary}}}
		if hedged {
			spec.Replicas = append(spec.Replicas, transport.Replica{Handler: eng})
			spec.Resilience, spec.Budget, spec.Obs = cfg.Resilience, budget, sink
		}
		var err error
		if built[i], err = transport.NewSite(spec); err != nil {
			return nil, nil, err
		}
		clients[i] = built[i].Client()
	}
	return built, clients, nil
}

// tailMeasure executes the experiment query cfg.Queries times over the
// given clients and returns the sorted per-query wall latencies plus the
// final relation (identical across iterations for a fixed dataset).
func tailMeasure(cfg TailConfig, clients []transport.Client, cat *catalog.Catalog) ([]time.Duration, *relation.Relation, error) {
	coord := core.NewCoordinator(clients...)
	q := GroupReductionQuery(HighCard)
	ctx := context.Background()
	rel, _, plan, err := coord.Run(ctx, q, "tpcr", core.Egil{Catalog: cat, Options: core.DefaultOptions})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: tail plan: %w", err)
	}
	latencies := make([]time.Duration, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		start := time.Now()
		r, _, err := coord.Execute(ctx, plan)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: tail query %d: %w", i, err)
		}
		latencies = append(latencies, time.Since(start))
		if d := resultDiff(rel, r, q.Keys()); d != "" {
			return nil, nil, fmt.Errorf("bench: tail query %d diverged from baseline: %s", i, d)
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return latencies, rel, nil
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

// TailExperiment runs the workload twice over identical data and
// identical seeded stragglers — hedging off, then hedging on against a
// clean replica of each site — and reports the latency quantiles, the
// hedge/budget accounting, and an error if any result byte differs.
func TailExperiment(cfg TailConfig) (*TailResult, error) {
	cfg = cfg.defaults()
	sites, cat, err := tailCluster(cfg)
	if err != nil {
		return nil, err
	}

	// Variant 1: hedging off. Every call rides out the injected tail.
	plain, unhedged, err := tailSites(cfg, sites, false, nil)
	if err != nil {
		return nil, err
	}
	baseLat, baseRel, err := tailMeasure(cfg, unhedged, cat)
	if err != nil {
		return nil, err
	}

	// Variant 2: hedging on. The primary replays the same seeded fault
	// sequence; a clean replica of the same partition answers hedges.
	sink := obs.New()
	racing, hedged, err := tailSites(cfg, sites, true, sink)
	if err != nil {
		return nil, err
	}
	hedgedLat, hedgedRel, err := tailMeasure(cfg, hedged, cat)
	for _, cl := range hedged {
		cl.Close() // waits out any losing hedge goroutines
	}
	if err != nil {
		return nil, err
	}
	if d := resultDiff(baseRel, hedgedRel, GroupReductionQuery(HighCard).Keys()); d != "" {
		return nil, fmt.Errorf("bench: hedged results diverge from unhedged baseline: %s", d)
	}

	res := &TailResult{
		Config:      cfg,
		UnhedgedP50: percentile(baseLat, 50),
		UnhedgedP99: percentile(baseLat, 99),
		HedgedP50:   percentile(hedgedLat, 50),
		HedgedP99:   percentile(hedgedLat, 99),

		Hedges:       sink.Metrics.CounterValue("transport.hedges"),
		HedgeWins:    sink.Metrics.CounterValue("transport.hedge_wins"),
		BudgetDenied: sink.Metrics.CounterValue("transport.budget_denied"),
	}
	for i, s := range racing {
		res.Stacks += fmt.Sprintf("client stack %s: %s unhedged, %s hedged\n", s.ID(), plain[i], s)
	}
	return res, nil
}

// resultDiff reports the first difference between two results of one
// query, both sorted by its keys first, comparing float payloads bit for
// bit ("" when identical).
func resultDiff(a, b *relation.Relation, keys []string) string {
	for _, r := range []*relation.Relation{a, b} {
		if err := r.SortBy(keys...); err != nil {
			return err.Error()
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i, ra := range a.Rows {
		for j, x := range ra {
			if y := b.Rows[i][j]; x != y { // floats by their bits
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, x, y)
			}
		}
	}
	return ""
}
