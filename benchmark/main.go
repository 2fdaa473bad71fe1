// Command benchmark is the repository's performance benchmark: four
// workloads over the deployed path (sites behind transport.NewServer on
// loopback TCP, no modeled link cost), measured by wall clock end to end
// and decomposed layer by layer from spans the benchmark records around
// its own calls. See README.md in this directory.
//
//	go run ./benchmark -seed 1                       # everything, human-readable
//	go run ./benchmark -workload scan_lowcard -seconds 5
//	go run ./benchmark -aa 10                        # steadiness check
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # BENCHMARK.json contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/relation"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// endToEnd lists the metrics a user of the system sees, with the share of
// the parent's median by which each may worsen before a change counts as a
// regression. BENCHMARK.json repeats the table; a test keeps them equal.
// The bounds are as tight as this machine allows (README, "Steadiness"):
// the time metrics drift by 5-15% over minutes on a shared two-core VM,
// and bytes and allocations, exact for one seed, move by up to 3% with the
// seed. Failures are not in the table: they are reported as
// failed/attempted, and any failure fails the run.
var endToEnd = []struct {
	name, unit, better string
	bound              float64
}{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.10},
	{"wire_kb_per_query", "KB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, in the order
// they print. All times are per query.
var perLayer = []struct{ name, unit string }{
	// Wall-clock decomposition of bench.query (spans; sums to its wall time).
	{"core.plan_ms", "ms"},
	{"core.exec_self_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"site.handle_ms", "ms"},
	{"serve.nonsite_ms", "ms"},
	{"unaccounted_ms", "ms"},
	// Goroutine time over all sites, and how busy the sites were.
	{"transport.busy_ms", "ms"},
	{"site.busy_ms", "ms"},
	{"site.busy_cores", "cores"},
	// Counts at the same boundaries.
	{"transport.messages", "count"},
	{"transport.wire_kb", "KB"},
	{"serve.rejected", "count"},
	{"serve.shed", "count"},
	// What recording costs: traced ÷ untraced latency_p50_ms.
	{"trace.overhead", "ratio"},
	// Layers alone, one caller, on the captured site0 exchange (probes).
	{"transport.echo_ms", "ms"},
	{"probe.site_handle_ms", "ms"},
	{"gmdj.kernel_ms", "ms"},
	{"site.nonkernel_ms", "ms"},
	{"vec.convert_ms", "ms"},
	{"sql.parse_us", "us"},
	{"probe.plan_ms", "ms"},
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   string // "0" untraced only, "1" traced only, "" both
	outDir  string
	// builds fixes how many times the workload is set up; 0 (every
	// command-line run) lets setupTimes decide. Tests use 1.
	builds int
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// Checksum fingerprints the result bytes the system returned.
	Checksum uint64
	EndToEnd []metric
	PerLayer []metric
}

func main() {
	var o options
	var name string
	var aa int
	flag.StringVar(&name, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the generated data")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.StringVar(&o.trace, "trace", "", "0: untraced window only; 1: traced window and probes only; default both")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace files")
	flag.IntVar(&aa, "aa", 0, "run every workload N times per set in child processes (seeds seed..seed+N-1), two sets, and check the spreads against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || (o.trace != "" && o.trace != "0" && o.trace != "1") {
		flag.Usage()
		os.Exit(2)
	}

	todo := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		todo = []workload{*w}
	}
	if aa > 0 {
		os.Exit(runAA(os.Stdout, todo, o, aa))
	}

	fmt.Printf("# skalla benchmark: seed=%d seconds=%g GOMAXPROCS=%d %s commit=%s\n",
		o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	ok := true
	var last *result
	for i := range todo {
		res, err := runWorkload(os.Stdout, &todo[i], o)
		if err != nil {
			// No result line: the caller must not mistake a broken run
			// for a measurement.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", todo[i].name, err)
			os.Exit(1)
		}
		ok = ok && res.Correct && res.Failed == 0
		last = res
	}
	if len(todo) == 1 {
		if err := printContract(os.Stdout, last); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, if the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload sets one workload up, checks it against the oracle, runs the
// windows o.trace asks for, and prints every metric by name and unit.
func runWorkload(out io.Writer, w *workload, o options) (*result, error) {
	rec := newRecorder()
	e, builds, err := setupTimes(w, o.seed, rec, o.builds)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if e.plan != nil {
		// The probes replay round 2 (the second MD round of a 4-round
		// plan), or the last round of a shorter plan.
		rec.captureRound = min(2, e.plan.Rounds()-1)
	}
	want, err := oracle(e)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Correct: true}
	fmt.Fprintf(out, "\n== %s: %d sites, %d rows, %d client(s) ==\n", w.name, w.sites, w.data.Rows, w.clients)
	res.Checksum, err = verify(e, want)
	if err != nil {
		res.Correct = false
		res.Attempted, res.Failed = 1, 1
		fmt.Fprintf(out, "WRONG RESULT: %v\n", err)
		return res, nil
	}
	fmt.Fprintf(out, "oracle: %d operation(s) match byte for byte, checksum %016x\n", len(want), res.Checksum)

	total := time.Duration(o.seconds * float64(time.Second))
	timed, traced, probing := total, total/4, total/8
	if o.trace == "1" {
		timed, traced, probing = total/4, total/2, total/4
	}
	runWindow(e, want, min(timed/10, time.Second)) // warm-up, untimed

	base := runWindow(e, want, timed)
	if base.ok() == 0 {
		return nil, fmt.Errorf("no operation completed in the untraced window: %v", base.firstErr)
	}
	if o.trace != "1" {
		res.Attempted, res.Failed = base.attempted, base.failed
		res.EndToEnd = []metric{
			{"latency_p50_ms", base.p50(), "ms"},
			{"throughput_qps", float64(base.ok()) / base.wall.Seconds(), "1/s"},
			{"alloc_mb_per_query", base.perQuery(float64(base.allocB)) / (1 << 20), "MB"},
			{"wire_kb_per_query", base.perQuery(float64(base.wireB)) / 1024, "KB"},
			{"setup_s", median(builds), "s"},
		}
		fmt.Fprintf(out, "end to end, untraced, %.1f s closed loop:\n", base.wall.Seconds())
		printMetrics(out, res.EndToEnd)
		if p, ok := tailPercentile(base.ok()); ok {
			fmt.Fprintf(out, "  %-22s %12.4f ms   (information only)\n", fmt.Sprintf("latency_p%g_ms", p), percentile(base.latencies, p))
		}
		fmt.Fprintf(out, "  samples=%d attempted=%d failed=%d failed_frac=%.6f setup_s is the median of %d builds\n",
			base.ok(), base.attempted, base.failed, float64(base.failed)/float64(base.attempted), len(builds))
		fmt.Fprintf(out, "  gc: %d cycles (%.2f per query), %.1f ms paused\n",
			base.gcCycles, base.perQuery(float64(base.gcCycles)), float64(base.gcPauseNs)/1e6)
		if base.firstErr != nil {
			fmt.Fprintf(out, "  first error: %v\n", base.firstErr)
		}
	}
	if o.trace == "0" {
		return res, nil
	}

	rec.on.Store(true)
	tw := runWindow(e, want, traced)
	rec.on.Store(false)
	spans, ex := rec.take()
	layers := analyze(spans)
	probes, notes, err := runProbes(e, ex, probing)
	if err != nil {
		return nil, err
	}
	if tw.ok() == 0 {
		return nil, fmt.Errorf("no operation completed in the traced window: %v", tw.firstErr)
	}
	if o.trace == "1" {
		res.Attempted, res.Failed = tw.attempted, tw.failed
	} else {
		res.Attempted += tw.attempted
		res.Failed += tw.failed
	}
	byName := map[string]probe{}
	for _, p := range probes {
		byName[p.Name] = p
	}
	values := map[string]float64{
		"core.plan_ms":         layers.PlanMs,
		"core.exec_self_ms":    layers.ExecSelfMs,
		"transport.self_ms":    layers.TransMs,
		"site.handle_ms":       layers.SiteMs,
		"serve.nonsite_ms":     layers.NonsiteMs,
		"unaccounted_ms":       layers.UnaccountedMs,
		"transport.busy_ms":    layers.TransBusyMs,
		"site.busy_ms":         layers.SiteBusyMs,
		"site.busy_cores":      layers.SiteBusyMs * float64(layers.Queries) / 1e3 / tw.wall.Seconds(),
		"transport.messages":   tw.perQuery(float64(tw.messages)),
		"transport.wire_kb":    tw.perQuery(float64(tw.wireB)) / 1024,
		"serve.rejected":       float64(tw.rejected),
		"serve.shed":           float64(tw.shed),
		"trace.overhead":       tw.p50() / base.p50(),
		"transport.echo_ms":    byName[probeEcho].ms(),
		"probe.site_handle_ms": byName[probeHandle].ms(),
		"gmdj.kernel_ms":       byName[probeKernel].ms(),
		"site.nonkernel_ms":    byName[probeHandle].ms() - byName[probeKernel].ms(),
		"vec.convert_ms":       byName[probeConvert].ms(),
		"sql.parse_us":         byName[probeParse].NsPerOp / 1e3,
		"probe.plan_ms":        byName[probePlan].ms(),
	}
	for _, m := range perLayer {
		res.PerLayer = append(res.PerLayer, metric{m.name, values[m.name], m.unit})
	}
	fmt.Fprintf(out, "per layer, traced, %.1f s, %d queries, per query (self time = union of a layer's spans minus union of its children's):\n",
		tw.wall.Seconds(), layers.Queries)
	printMetrics(out, res.PerLayer)
	fmt.Fprintf(out, "  spans: %d transport.call, %d site.handle, %d unmatched; bench.query wall %.4f ms, layers + unaccounted = %.4f of it\n",
		layers.CallSpans, layers.SiteSpans, layers.Unmatched, layers.WallMs, layers.accounted())
	fmt.Fprintf(out, "  probes on the site0 round-%d exchange (%d request rows, %d response rows):\n",
		ex.req.Round, relLen(ex.req.Base), relLen(ex.resp.Rel))
	for _, p := range probes {
		fmt.Fprintf(out, "    %-16s %12.0f ns/op %12.0f B/op %10.1f allocs/op  (%d ops)\n", p.Name, p.NsPerOp, p.BPerOp, p.AllocsPer, p.Ops)
	}
	for _, n := range notes {
		fmt.Fprintf(out, "    note: %s\n", n)
	}
	if a := layers.accounted(); a < 0.98 || a > 1.02 {
		res.Correct = false
		fmt.Fprintf(out, "TRACE UNSOUND: layers + unaccounted sum to %.4f of bench.query wall time\n", a)
	}
	path, err := writeTrace(o.outDir, traceFile{Workload: w.name, Seed: o.seed, Layers: layers, Probes: probes, Spans: spans})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  trace: %s (%d spans)\n", path, len(spans))
	return res, nil
}

func relLen(r *relation.Relation) int {
	if r == nil {
		return 0
	}
	return r.Len()
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-22s %12.4f %s\n", m.Name, m.Value, m.Unit)
	}
}

// printContract prints the one-line JSON result the BENCHMARK.json driver
// reads, with whichever metrics the run measured: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func printContract(out io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, ms := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			line.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
