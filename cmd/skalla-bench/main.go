// Command skalla-bench regenerates the paper's experimental evaluation
// (Section 5): the speed-up experiments for group reduction (Fig. 2),
// coalescing (Fig. 3), and synchronization reduction (Fig. 4); the
// combined-reductions scale-up (Fig. 5, both group-growth variants); and
// an extra per-optimization ablation.
//
//	skalla-bench -experiment all
//	skalla-bench -experiment fig2 -rows 96000 -customers 8000
//
// Absolute numbers depend on the machine and the configured link model;
// the shapes (who wins, quadratic vs linear growth, the (2c+2n+1)/(4n+1)
// formula fit) are the reproduction targets.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/transport"
)

func main() {
	experiment := flag.String("experiment", "all", "fig2, fig3, fig4, fig5, ablation, tree, tail, or all")
	sites := flag.Int("sites", 8, "number of warehouse sites")
	rows := flag.Int("rows", 48000, "total TPCR rows")
	customers := flag.Int("customers", 4000, "high-cardinality group count (paper: 100000)")
	lowcard := flag.Int("lowcard", 2000, "low-cardinality group count (paper: 2000-4000)")
	seed := flag.Int64("seed", 1, "generator seed")
	repeat := flag.Int("repeat", 2, "repetitions per point (fastest kept)")
	latency := flag.Duration("latency", 2*time.Millisecond, "modeled per-message link latency")
	mbps := flag.Float64("mbps", 10, "modeled link bandwidth in Mbit/s")
	jsonPath := flag.String("json", "", "also write machine-readable results (figure → metric → value) to this JSON file")
	tailQueries := flag.Int("tail-queries", 40, "tail experiment: executions per variant")
	tailP := flag.Float64("tail-p", 0.12, "tail experiment: per-call straggler probability")
	tailDelay := flag.Duration("tail-delay", 50*time.Millisecond, "tail experiment: injected straggler latency")
	hedgeDelay := flag.Duration("hedge-delay", 5*time.Millisecond, "tail experiment: fixed hedge trigger delay")
	tailMinSpeedup := flag.Float64("tail-min-speedup", 0,
		"tail experiment: fail unless hedging improves p99 latency by this factor (0 disables the guard)")
	flag.Parse()

	// The tail experiment builds its own chaos-injected cluster pair; it
	// does not need the TPCR harness below.
	if *experiment == "tail" {
		r, err := bench.TailExperiment(bench.TailConfig{
			Sites: *sites, Rows: *rows, Seed: *seed,
			Queries: *tailQueries, TailP: *tailP, TailDelay: *tailDelay,
			Resilience: transport.Resilience{HedgeDelay: *hedgeDelay},
		})
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Fprint(os.Stderr, r.Stacks)
		fmt.Print(r)
		if *jsonPath != "" {
			if err := r.Metrics().WriteFile(*jsonPath); err != nil {
				log.Fatalf("skalla-bench: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
		}
		if *tailMinSpeedup > 0 && r.P99Speedup() < *tailMinSpeedup {
			log.Fatalf("skalla-bench: tail regression: hedged p99 speedup %.2fx below required %.2fx",
				r.P99Speedup(), *tailMinSpeedup)
		}
		return
	}

	cfg := bench.Config{
		Sites: *sites, Rows: *rows, Customers: *customers,
		LowCardGroups: *lowcard, Seed: *seed, Repeat: *repeat,
		Cost: transport.CostModel{LatencyPerMsg: *latency, BytesPerSec: *mbps * 1e6 / 8},
	}
	h, err := bench.NewHarness(cfg)
	if err != nil {
		log.Fatalf("skalla-bench: %v", err)
	}
	defer h.Close()

	results := bench.Results{}
	switch *experiment {
	case "all":
		report, res, err := h.RunAllResults()
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Print(report)
		results.Merge(res)
	case "fig2":
		r, err := h.Fig2()
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Print(r)
		results.Merge(r.Metrics())
	case "fig3":
		high, low, err := h.Fig3()
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Println(high)
		fmt.Print(low)
		results.Merge(high.Metrics("fig3_high"))
		results.Merge(low.Metrics("fig3_low"))
	case "fig4":
		high, low, err := h.Fig4()
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Println(high)
		fmt.Print(low)
		results.Merge(high.Metrics("fig4_high"))
		results.Merge(low.Metrics("fig4_low"))
	case "fig5":
		grow, err := h.Fig5(false)
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Println(grow)
		konst, err := h.Fig5(true)
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Print(konst)
		results.Merge(grow.Metrics())
		results.Merge(konst.Metrics())
	case "ablation":
		rowsA, err := h.Ablation()
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Print(bench.FormatAblation(rowsA))
		results.Merge(bench.AblationMetrics(rowsA))
	case "tree":
		r, err := bench.TreeExperiment(cfg)
		if err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Print(r)
		results.Merge(r.Metrics())
	default:
		log.Fatalf("skalla-bench: unknown experiment %q", *experiment)
	}

	if *jsonPath != "" {
		if err := results.WriteFile(*jsonPath); err != nil {
			log.Fatalf("skalla-bench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
