package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// runAA checks that the benchmark is steady enough for its own bounds, the
// way the driver that consumes BENCHMARK.json does: for every workload it
// launches two sets of n untraced runs of the same code, each run a fresh
// process with its own seed (seed, seed+1, ...), and compares per metric
//
//   - the spread inside a set — the distance between the first and third
//     quartile as a share of the median — with the metric's bound
//     (setup_s excepted: it is a median of a few builds, and only its
//     drift is held to the bound), and
//   - the second set's median with the first's: it may not be worse by
//     more than the bound.
//
// It returns the process exit code: 0 when everything is within bounds.
func runAA(out io.Writer, todo []workload, o options, n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -aa needs at least 2 runs per set")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(out, "# A/A: 2 sets x %d runs, seeds %d..%d, seconds=%g GOMAXPROCS=%d %s commit=%s\n",
		n, o.seed, o.seed+int64(n)-1, o.seconds, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	code := 0
	for _, w := range todo {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				ms, err := childRun(exe, w.name, o.seed+int64(i), o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s set %d run %d: %v\n", w.name, s+1, i+1, err)
					return 1
				}
				for name, v := range ms {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		fmt.Fprintf(out, "\n== %s ==\n%-20s %12s %12s %12s %8s %12s %8s %6s  %s\n", w.name,
			"metric", "min", "median", "max", "spread", "median(2nd)", "drift", "bound", "verdict")
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			sort.Float64s(a)
			spread := quartileSpread(a)
			drift := (median(b) - median(a)) / median(a) // positive = worse
			if m.better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if (m.name != "setup_s" && spread > m.bound) || drift > m.bound {
				verdict = "EXCEEDS BOUND"
				code = 1
			} else if m.name != "setup_s" && spread > m.bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(out, "%-20s %12.4f %12.4f %12.4f %7.2f%% %12.4f %+7.2f%% %5.0f%%  %s\n",
				m.name, a[0], median(a), a[len(a)-1], spread*100, median(b), drift*100, m.bound*100, verdict)
		}
	}
	return code
}

// childRun runs one untraced measurement in a child process and returns
// its end-to-end metrics by name. A run that is incorrect or had failed
// operations is an error: an A/A comparison of wrong answers means nothing.
func childRun(exe, workload string, seed int64, o options) (map[string]float64, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("run incorrect (correct=%v failed=%d)", line.Correct, line.Failed)
	}
	ms := map[string]float64{}
	for name, v := range line.Metrics {
		ms[name] = v.Value
	}
	return ms, nil
}
