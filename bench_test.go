// Benchmarks reproducing the paper's evaluation section (one benchmark
// per figure/panel; see EXPERIMENTS.md for the mapping and recorded
// results). Each op is one full distributed query execution; besides
// ns/op the benchmarks report:
//
//	wireKB/op  — exact bytes moved between coordinator and sites
//	evalms/op  — the paper's evaluation-time model: per-round max site
//	             compute + coordinator compute + modeled link transfer
//	rounds/op  — synchronization rounds
//
// Run everything with: go test -bench . -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/skalla"
)

// benchConfig keeps per-op cost low enough for -bench . to finish in
// minutes while preserving the paper's shapes; scale up via cmd/skalla-bench.
func benchConfig(sites, rows int) bench.Config {
	return bench.Config{
		Sites: sites, Rows: rows,
		Customers: rows / 12, LowCardGroups: 200, Seed: 1,
	}
}

func newHarness(b *testing.B, cfg bench.Config) *bench.Harness {
	b.Helper()
	h, err := bench.NewHarness(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { h.Close() })
	return h
}

// runQuery executes one query on the first sites sites of the harness's
// cluster and returns its stats.
func runQuery(b *testing.B, h *bench.Harness, sites int, q skalla.Query, opts skalla.Options) *skalla.ExecStats {
	sub, err := h.Cluster.Subset(sites)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sub.Query(q, "tpcr", opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats
}

// measureLoop runs the query b.N times and reports the custom metrics.
func measureLoop(b *testing.B, h *bench.Harness, sites int, q skalla.Query, opts skalla.Options) {
	b.Helper()
	var last *skalla.ExecStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = runQuery(b, h, sites, q, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Bytes())/1024, "wireKB/op")
	b.ReportMetric(float64(last.EvalTime().Microseconds())/1000, "evalms/op")
	b.ReportMetric(float64(len(last.Rounds)), "rounds/op")
}

// BenchmarkFig2Time / BenchmarkFig2Bytes — Fig. 2: the group reduction
// query at 2..8 participating sites, with and without the reductions.
// Time and bytes come from the same executions (both panels of the
// figure); the wireKB metric is the right panel.
func BenchmarkFig2(b *testing.B) {
	h := newHarness(b, benchConfig(8, 12000))
	q := bench.GroupReductionQuery(bench.HighCard)
	variants := []struct {
		name string
		opts skalla.Options
	}{
		{"none", skalla.Options{}},
		{"siteGR", skalla.Options{GroupReduceSites: true}},
		{"coordGR", skalla.Options{GroupReduceCoord: true}},
		{"bothGR", skalla.Options{GroupReduceSites: true, GroupReduceCoord: true}},
	}
	for _, sites := range []int{2, 4, 8} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("sites=%d/%s", sites, v.name), func(b *testing.B) {
				measureLoop(b, h, sites, q, v.opts)
			})
		}
	}
}

// BenchmarkFig2Formula validates the paper's (2c+2n+1)/(4n+1) traffic
// model as a benchmark-time assertion (the ±5% claim).
func BenchmarkFig2Formula(b *testing.B) {
	h := newHarness(b, benchConfig(8, 12000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := h.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range r.Points {
			if p.PredictedRatio == 0 {
				continue
			}
			errFrac := (p.MeasuredRatio - p.PredictedRatio) / p.PredictedRatio
			if errFrac < -0.05 || errFrac > 0.05 {
				b.Fatalf("sites=%d: formula off by %.1f%%", p.Sites, errFrac*100)
			}
		}
	}
}

// BenchmarkFig3High / BenchmarkFig3Low — Fig. 3: coalescing at both
// grouping cardinalities.
func BenchmarkFig3High(b *testing.B) {
	benchCoalesce(b, bench.HighCard)
}

func BenchmarkFig3Low(b *testing.B) {
	benchCoalesce(b, bench.LowCard)
}

func benchCoalesce(b *testing.B, attr string) {
	h := newHarness(b, benchConfig(8, 12000))
	q := bench.CoalescingQuery(attr)
	for _, sites := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d/non-coalesced", sites), func(b *testing.B) {
			measureLoop(b, h, sites, q, skalla.Options{})
		})
		b.Run(fmt.Sprintf("sites=%d/coalesced", sites), func(b *testing.B) {
			measureLoop(b, h, sites, q, skalla.Options{Coalesce: true})
		})
	}
}

// BenchmarkFig4High / BenchmarkFig4Low — Fig. 4: synchronization
// reduction without coalescing at both cardinalities.
func BenchmarkFig4High(b *testing.B) {
	benchSyncReduce(b, bench.HighCard)
}

func BenchmarkFig4Low(b *testing.B) {
	benchSyncReduce(b, bench.LowCard)
}

func benchSyncReduce(b *testing.B, attr string) {
	h := newHarness(b, benchConfig(8, 12000))
	q := bench.GroupReductionQuery(attr)
	for _, sites := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sites=%d/no-sync-reduction", sites), func(b *testing.B) {
			measureLoop(b, h, sites, q, skalla.Options{})
		})
		b.Run(fmt.Sprintf("sites=%d/sync-reduction", sites), func(b *testing.B) {
			measureLoop(b, h, sites, q, skalla.Options{SyncReduce: true})
		})
	}
}

// BenchmarkFig5Scaleup — Fig. 5 (left): combined reductions query on four
// sites, data ×1..×4, groups growing with the data; the optimized run's
// site/coordinator/communication breakdown (right panel) is reported as
// metrics.
func BenchmarkFig5Scaleup(b *testing.B) {
	benchScaleup(b, false)
}

// BenchmarkFig5ConstGroups — §5.3's second variant: group count constant
// while data grows.
func BenchmarkFig5ConstGroups(b *testing.B) {
	benchScaleup(b, true)
}

func benchScaleup(b *testing.B, constGroups bool) {
	const baseRows = 4000
	q := bench.CombinedQuery(bench.HighCard)
	for scale := 1; scale <= 4; scale++ {
		cfg := benchConfig(4, baseRows*scale)
		if constGroups {
			cfg.Customers = baseRows / 12
		}
		h := newHarness(b, cfg)
		for _, v := range []struct {
			name string
			opts skalla.Options
		}{
			{"none", skalla.Options{}},
			{"all", skalla.AllOptimizations},
		} {
			b.Run(fmt.Sprintf("scale=%d/%s", scale, v.name), func(b *testing.B) {
				var last *skalla.ExecStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					last = runQuery(b, h, 4, q, v.opts)
				}
				b.StopTimer()
				b.ReportMetric(float64(last.Bytes())/1024, "wireKB/op")
				b.ReportMetric(float64(last.EvalTime().Microseconds())/1000, "evalms/op")
				b.ReportMetric(float64(last.SiteTime().Microseconds())/1000, "site-ms/op")
				b.ReportMetric(float64(last.CoordTime().Microseconds())/1000, "coord-ms/op")
				b.ReportMetric(float64(last.CommTime().Microseconds())/1000, "comm-ms/op")
			})
		}
	}
}

// BenchmarkAblation attributes the win of each optimization alone on the
// combined query (extension beyond the paper's figures).
func BenchmarkAblation(b *testing.B) {
	h := newHarness(b, benchConfig(8, 12000))
	q := bench.CombinedQuery(bench.HighCard)
	for _, v := range []struct {
		name string
		opts skalla.Options
	}{
		{"none", skalla.Options{}},
		{"coalesce", skalla.Options{Coalesce: true}},
		{"group-reduce-sites", skalla.Options{GroupReduceSites: true}},
		{"group-reduce-coord", skalla.Options{GroupReduceCoord: true}},
		{"sync-reduce", skalla.Options{SyncReduce: true}},
		{"all", skalla.AllOptimizations},
	} {
		b.Run(v.name, func(b *testing.B) {
			measureLoop(b, h, 8, q, v.opts)
		})
	}
}

// BenchmarkTree compares the flat coordinator against relay-tree
// topologies (the §6 future-work extension): each op is a full tree
// experiment sweep.
func BenchmarkTree(b *testing.B) {
	cfg := benchConfig(4, 8000) // 8 leaves
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TreeExperiment(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
