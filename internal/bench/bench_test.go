package bench

import (
	"math"
	"strings"
	"testing"

	"repro/skalla"
)

// smallConfig keeps the experiment tests fast; the shapes the paper
// reports are scale-free.
func smallConfig() Config {
	return Config{
		Sites: 4, Rows: 6000, Customers: 500, LowCardGroups: 100, Seed: 1,
	}
}

func newHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := NewHarness(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Sites != 8 || c.Rows == 0 || c.Customers == 0 || c.LowCardGroups == 0 {
		t.Errorf("defaults: %+v", c)
	}
	if c.Cost.LatencyPerMsg == 0 {
		t.Error("default cost model has no latency")
	}
}

func TestQueriesAreWellFormed(t *testing.T) {
	h := newHarness(t)
	for _, q := range []skalla.Query{
		GroupReductionQuery(HighCard), GroupReductionQuery(LowCard),
		CoalescingQuery(HighCard), CoalescingQuery(LowCard),
		CombinedQuery(HighCard),
	} {
		if _, err := h.Cluster.Query(q, "tpcr", skalla.NoOptimizations); err != nil {
			t.Errorf("query failed: %v", err)
		}
	}
}

// TestFig2Shape: group reduction must reduce groups received, match the
// paper's analytic formula within 5%, and the coordinator-side filter
// must cut shipped groups.
func TestFig2Shape(t *testing.T) {
	h := newHarness(t)
	r, err := h.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != h.Config.Sites {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.SiteGR.Received >= p.None.Received && p.Sites > 1 {
			t.Errorf("sites=%d: site GR did not reduce received groups (%d >= %d)",
				p.Sites, p.SiteGR.Received, p.None.Received)
		}
		if p.Sites > 1 && p.CoordGR.Shipped >= p.None.Shipped {
			t.Errorf("sites=%d: coord GR did not reduce shipped groups", p.Sites)
		}
		// The paper reports the formula matches within 5%.
		if p.PredictedRatio > 0 {
			errFrac := math.Abs(p.MeasuredRatio-p.PredictedRatio) / p.PredictedRatio
			if errFrac > 0.05 {
				t.Errorf("sites=%d: formula error %.1f%% (predicted %.3f, measured %.3f)",
					p.Sites, errFrac*100, p.PredictedRatio, p.MeasuredRatio)
			}
		}
	}
	// Non-reduced bytes grow superlinearly (quadratic in the paper);
	// with both reductions growth is linear. Compare growth factors
	// between n=2 and n=4.
	n2, n4 := r.Points[1], r.Points[3]
	noneGrowth := float64(n4.None.Bytes) / float64(n2.None.Bytes)
	bothGrowth := float64(n4.BothGR.Bytes) / float64(n2.BothGR.Bytes)
	if noneGrowth <= bothGrowth {
		t.Errorf("unreduced growth %.2f should exceed reduced growth %.2f", noneGrowth, bothGrowth)
	}
	// Quadratic-ish: groups shipped scale ~n^2 unreduced (each of n sites
	// gets all ~n*g groups).
	shipGrowth := float64(n4.None.Shipped) / float64(n2.None.Shipped)
	if shipGrowth < 3 {
		t.Errorf("unreduced shipped growth %.2f, want ~4 (quadratic)", shipGrowth)
	}
	if !strings.Contains(r.String(), "Fig 2") {
		t.Error("report rendering broken")
	}
}

// TestFig3Shape: coalescing halves the MD rounds and reduces both time
// and traffic; high-cardinality benefits more (the paper's panels).
func TestFig3Shape(t *testing.T) {
	h := newHarness(t)
	high, low, err := h.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range high.Points {
		if p.On.Rounds >= p.Off.Rounds {
			t.Errorf("sites=%d: coalescing did not cut rounds (%d >= %d)", p.Sites, p.On.Rounds, p.Off.Rounds)
		}
		if p.On.Bytes >= p.Off.Bytes {
			t.Errorf("sites=%d: coalescing did not cut bytes", p.Sites)
		}
	}
	// High-cardinality savings (bytes) exceed low-cardinality savings in
	// absolute terms.
	hSave := high.Points[len(high.Points)-1].Off.Bytes - high.Points[len(high.Points)-1].On.Bytes
	lSave := low.Points[len(low.Points)-1].Off.Bytes - low.Points[len(low.Points)-1].On.Bytes
	if hSave <= lSave {
		t.Errorf("high-card saving %d should exceed low-card %d", hSave, lSave)
	}
}

// TestFig4Shape: synchronization reduction collapses the correlated query
// to a single round and removes most traffic.
func TestFig4Shape(t *testing.T) {
	h := newHarness(t)
	high, low, err := h.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []*SweepResult{high, low} {
		for _, p := range sweep.Points {
			if p.Off.Rounds != 3 {
				t.Errorf("%s sites=%d: unoptimized rounds = %d, want 3", sweep.Title, p.Sites, p.Off.Rounds)
			}
			if p.On.Rounds != 1 {
				t.Errorf("%s sites=%d: sync-reduced rounds = %d, want 1", sweep.Title, p.Sites, p.On.Rounds)
			}
			if p.On.Bytes >= p.Off.Bytes {
				t.Errorf("%s sites=%d: no traffic saving", sweep.Title, p.Sites)
			}
		}
	}
}

// TestFig5Shape: both curves grow roughly linearly with data size and the
// optimized run stays well below the unoptimized one (paper: nearly half).
func TestFig5Shape(t *testing.T) {
	h := newHarness(t)
	r, err := h.Fig5(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.Opt.Bytes >= p.Unopt.Bytes {
			t.Errorf("scale %d: optimized moved more data", p.Scale)
		}
	}
	// Linear growth: time at x4 is within [2, 8] times x1 for the
	// optimized run (allowing noise, but far from quadratic 16x).
	growth := float64(r.Points[3].Opt.Bytes) / float64(r.Points[0].Opt.Bytes)
	if growth < 1.5 || growth > 8 {
		t.Errorf("optimized bytes growth x1→x4 = %.2f, want roughly linear", growth)
	}
	// Constant-group variant runs too ("comparable results").
	rc, err := h.Fig5(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Points) != 4 {
		t.Fatal("const-group variant incomplete")
	}
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "Fig 5") || !strings.Contains(rc.String(), "constant group count") {
		t.Error("report rendering broken")
	}
}

func TestAblation(t *testing.T) {
	h := newHarness(t)
	rows, err := h.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	byLabel := map[string]Measure{}
	for _, r := range rows {
		byLabel[r.Label] = r.M
	}
	all, none := byLabel["all"], byLabel["none"]
	if all.Bytes >= none.Bytes {
		t.Error("all optimizations moved more data than none")
	}
	if all.Rounds != 1 || none.Rounds != 4 {
		t.Errorf("rounds: all=%d none=%d, want 1 and 4", all.Rounds, none.Rounds)
	}
	if !strings.Contains(FormatAblation(rows), "Ablation") {
		t.Error("ablation rendering broken")
	}
}

func TestFig5NeedsFourSites(t *testing.T) {
	h, err := NewHarness(Config{Sites: 2, Rows: 1000, Customers: 50, LowCardGroups: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Fig5(false); err == nil {
		t.Error("fig5 on 2 sites accepted")
	}
}

func TestTreeExperiment(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 4 // 8 leaves
	r, err := TreeExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	flat := r.Points[0]
	if flat.Label != "flat" {
		t.Fatalf("first point = %s", flat.Label)
	}
	for _, p := range r.Points[1:] {
		// Relay trees must cut the groups shipped from the root.
		if p.M.Shipped >= flat.M.Shipped {
			t.Errorf("%s shipped %d >= flat %d", p.Label, p.M.Shipped, flat.M.Shipped)
		}
	}
	if !strings.Contains(r.String(), "Multi-tier") {
		t.Error("rendering broken")
	}
}
