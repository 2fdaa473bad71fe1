package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// testOptions is a 300 ms run with one set-up build: enough to execute
// every code path, too short to measure anything.
func testOptions(t *testing.T, trace string) options {
	return options{seed: 1, seconds: 0.3, trace: trace, outDir: t.TempDir(), builds: 1}
}

// TestSmoke runs all four workloads end to end with the oracle on: set-up,
// byte-for-byte verification, the untraced and traced windows, the probes
// and the trace file.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := runWorkload(&out, w, testOptions(t, ""))
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			for _, m := range res.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, m.Value)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d end-to-end and %d per-layer metrics, want %d and %d",
					len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
			}
			if res.get("site.handle_ms") <= 0 {
				t.Errorf("site.handle_ms = %v: no site span was attributed", res.get("site.handle_ms"))
			}
			if w.replan && res.get("core.plan_ms") <= 0 {
				t.Errorf("core.plan_ms = %v on a workload that plans every query", res.get("core.plan_ms"))
			}
			if len(w.sql) > 0 && res.get("serve.nonsite_ms") <= 0 {
				t.Errorf("serve.nonsite_ms = %v on the serve workload", res.get("serve.nonsite_ms"))
			}
			var line bytes.Buffer
			if err := printContract(&line, res); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil {
				t.Fatalf("result line %q: %v", line.String(), err)
			}
			if parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil || len(parsed.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("result line %q lacks a contract key or metric", line.String())
			}
		})
	}
}

// TestSameSeedDeterminism: runs on one seed return the same result bytes
// and move the same bytes over the wire. Responses carry timing varints, so
// the byte count may wobble by a few bytes, not by 0.1%; and a transport
// retry (README, "What the benchmark found") adds one exchange's bytes to
// the run it happens in, so the two smallest of four runs are compared.
func TestSameSeedDeterminism(t *testing.T) {
	w, err := findWorkload("overhead_small")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) *result {
		o := testOptions(t, "0")
		o.seed = seed
		res, err := runWorkload(new(bytes.Buffer), w, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		return res
	}
	first := run(1)
	wire := []float64{first.get("wire_kb_per_query")}
	for i := 0; i < 3; i++ {
		res := run(1)
		if res.Checksum != first.Checksum {
			t.Errorf("result checksums differ on one seed: %016x vs %016x", first.Checksum, res.Checksum)
		}
		wire = append(wire, res.get("wire_kb_per_query"))
	}
	sort.Float64s(wire)
	if d := (wire[1] - wire[0]) / wire[0]; d > 0.001 {
		t.Errorf("wire_kb_per_query %v differ by %.3f%% on one seed, want <= 0.1%%", wire, d*100)
	}
	if other := run(2); other.Checksum == first.Checksum {
		t.Errorf("seeds 1 and 2 give the same result checksum %016x: the seed must change the data", first.Checksum)
	}
}

// get returns a measured metric by name (0 when the run did not take it).
func (r *result) get(name string) float64 {
	for _, ms := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Value
			}
		}
	}
	return 0
}

func sp(id, parent int64, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, "p", 100, 200)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"nested sequential", []span{sp(2, 1, "c", 110, 130), sp(3, 1, "c", 150, 160)}, 70},
		{"parallel overlap counts once", []span{sp(2, 1, "c", 110, 150), sp(3, 1, "c", 120, 170), sp(4, 1, "c", 130, 140)}, 40},
		{"clipped to the parent", []span{sp(2, 1, "c", 90, 120), sp(3, 1, "c", 190, 250)}, 70},
		{"unsorted input", []span{sp(3, 1, "c", 150, 160), sp(2, 1, "c", 110, 130)}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyzeQuery checks the layer arithmetic on a hand-built query: a
// plan with one schema fetch, then an execution of one round with two
// overlapping site calls.
func TestAnalyzeQuery(t *testing.T) {
	const ms = int64(1e6)
	spans := []span{
		sp(1, 0, spanQuery, 0, 100*ms),
		sp(2, 1, spanPlan, 1*ms, 11*ms),
		sp(3, 2, spanCall, 2*ms, 8*ms),
		sp(4, 3, spanHandle, 4*ms, 5*ms),
		sp(5, 1, spanExecute, 12*ms, 98*ms),
		sp(6, 5, spanCall, 20*ms, 60*ms),   // site0
		sp(7, 6, spanHandle, 30*ms, 50*ms), //
		sp(8, 5, spanCall, 22*ms, 90*ms),   // site1, overlapping
		sp(9, 8, spanHandle, 40*ms, 70*ms), //
	}
	l := analyze(spans)
	want := layerTimes{
		Queries: 1, WallMs: 100,
		PlanMs:        4,  // 10 − the 6 ms call
		ExecSelfMs:    16, // 86 − calls' union 20..90
		TransMs:       35, // (6−1) + (70 − handles' union 30..70)
		SiteMs:        41, // 1 + 40
		UnaccountedMs: 4,  // 100 − plan 10 − execute 86
		TransBusyMs:   5 + 20 + 38,
		SiteBusyMs:    1 + 20 + 30,
		CallSpans:     3, SiteSpans: 3,
	}
	if l != want {
		t.Errorf("analyze:\n got %+v\nwant %+v", l, want)
	}
	if a := l.accounted(); math.Abs(a-1) > 1e-9 {
		t.Errorf("layers + unaccounted = %v of wall time, want 1", a)
	}
}

// TestAnalyzeServe checks the serve-workload matching: site spans carry
// only the wire query ID, two clients overlap, and every group must find
// the bench.query span that contains it.
func TestAnalyzeServe(t *testing.T) {
	const ms = int64(1e6)
	h := func(id int64, query string, start, end int64) span {
		s := sp(id, 0, spanHandle, start, end)
		s.Query = query
		return s
	}
	spans := []span{
		sp(1, 0, spanQuery, 0, 30*ms),     // client A
		sp(2, 0, spanQuery, 5*ms, 50*ms),  // client B, overlapping A
		sp(3, 0, spanQuery, 31*ms, 60*ms), // client A's next query
		h(10, "serve-c000001", 2*ms, 12*ms),
		h(11, "serve-c000001", 4*ms, 20*ms),
		h(12, "serve-c000002", 10*ms, 40*ms), // fits only B
		h(13, "serve-c000003", 35*ms, 45*ms), // fits B and A's next; B is claimed
		h(14, "", 1*ms, 2*ms),                // schema fetch: no query ID on the wire
	}
	l := analyze(spans)
	if l.Unmatched != 0 || l.Queries != 3 || l.SiteSpans != 5 {
		t.Fatalf("unmatched=%d queries=%d site spans=%d, want 0, 3, 5", l.Unmatched, l.Queries, l.SiteSpans)
	}
	for id, parent := range map[int64]int64{10: 1, 11: 1, 12: 2, 13: 3, 14: 0} {
		for _, s := range spans {
			if s.ID == id && s.Parent != parent {
				t.Errorf("span %d attached to %d, want %d", id, s.Parent, parent)
			}
		}
	}
	// Site time is the union per query: 18 + 30 + 10; the rest of each
	// query's wall time is non-site.
	if got, want := l.SiteMs*3, 58.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("site time %v ms, want %v", got, want)
	}
	if got, want := l.NonsiteMs*3, (30.0-18)+(45-30)+(29-10); math.Abs(got-want) > 1e-9 {
		t.Errorf("non-site time %v ms, want %v", got, want)
	}
	if a := l.accounted(); math.Abs(a-1) > 1e-9 {
		t.Errorf("layers + unaccounted = %v of wall time, want 1", a)
	}
}

func TestPercentiles(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	for p, want := range map[float64]float64{50: 100, 95: 190, 99: 198, 100: 200, 0.1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of 1..200 = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample has no percentile")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// The tail percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// TestQuartileSpread pins the steadiness measure to Python's
// statistics.quantiles(values, n=4): for 1..10 it gives [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	vals := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want %v", got, want)
	}
	if got, want := quartileSpread([]float64{10, 11}), (11.25-9.75)/10.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of {10, 11} = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables the program
// prints from, and inside the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (%d chars of why) does not match the program's %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		use(m.Name)
		e := endToEnd[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != e.better || m.Bound != e.bound ||
			!unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v does not match the program's %+v", i, m, e)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		use(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unit.MatchString(m.Unit) ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %d: %+v does not match the program's %+v", i, m, perLayer[i])
		}
	}
}
