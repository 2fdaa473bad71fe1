package bench

import (
	"fmt"
	"strings"

	"repro/skalla"
)

// Fig2Point is one site-count point of the group reduction experiment.
type Fig2Point struct {
	Sites int
	// None / SiteGR / CoordGR / BothGR toggle distribution-independent
	// (site-side) and distribution-aware (coordinator-side) group
	// reduction. The paper measured None vs SiteGR and predicted that
	// CoordGR makes the curves linear; both columns are produced here.
	None, SiteGR, CoordGR, BothGR Measure
	// C is the measured fraction of group aggregates a site updates per
	// grouping variable (the paper's c).
	C float64
	// PredictedRatio is (2c+2n+1)/(4n+1) — the paper's analytic model of
	// groups transferred with vs without site-side reduction.
	PredictedRatio float64
	// MeasuredRatio is the observed groups-transferred ratio.
	MeasuredRatio float64
}

// Fig2Result reproduces Fig. 2: evaluation time (left) and data
// transferred (right) for the group reduction query over 1..n sites.
type Fig2Result struct {
	Points []Fig2Point
}

// Fig2 runs the group reduction experiment on the high-cardinality
// partition attribute, as in the paper.
func (h *Harness) Fig2() (*Fig2Result, error) {
	q := GroupReductionQuery(HighCard)
	out := &Fig2Result{}
	for n := 1; n <= h.Config.Sites; n++ {
		p := Fig2Point{Sites: n}
		var err error
		if p.None, err = h.run(n, q, skalla.Options{}); err != nil {
			return nil, fmt.Errorf("bench: fig2 sites=%d none: %w", n, err)
		}
		if p.SiteGR, err = h.run(n, q, skalla.Options{GroupReduceSites: true}); err != nil {
			return nil, fmt.Errorf("bench: fig2 sites=%d siteGR: %w", n, err)
		}
		if p.CoordGR, err = h.run(n, q, skalla.Options{GroupReduceCoord: true}); err != nil {
			return nil, fmt.Errorf("bench: fig2 sites=%d coordGR: %w", n, err)
		}
		if p.BothGR, err = h.run(n, q, skalla.Options{GroupReduceSites: true, GroupReduceCoord: true}); err != nil {
			return nil, fmt.Errorf("bench: fig2 sites=%d bothGR: %w", n, err)
		}
		// Paper's model (§5.2): with G = ng total groups, the base round
		// moves G; each of the two MD rounds ships nG and returns nG
		// unreduced or cG reduced, where c is the fraction of all group
		// aggregates updated per grouping variable. Total reduced over
		// total unreduced is (2c+2n+1)/(4n+1).
		if G := float64(p.None.ResultRows); G > 0 {
			mdRounds := float64(p.None.Rounds - 1)
			mdRecvSite := float64(p.SiteGR.Received) - G // minus base round
			if mdRounds > 0 {
				p.C = mdRecvSite / (mdRounds * G)
			}
			nf := float64(n)
			p.PredictedRatio = (2*p.C + 2*nf + 1) / (4*nf + 1)
			p.MeasuredRatio = float64(p.SiteGR.Groups()) / float64(p.None.Groups())
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// String renders both panels of Fig. 2 plus the formula validation.
func (r *Fig2Result) String() string {
	t1 := &table{
		title:  "Fig 2 (left): group reduction query — evaluation time (ms)",
		header: []string{"sites", "no reduction", "site GR", "coord GR", "both"},
	}
	t2 := &table{
		title:  "Fig 2 (right): group reduction query — data transferred (KB)",
		header: []string{"sites", "no reduction", "site GR", "coord GR", "both"},
	}
	t3 := &table{
		title:  "Fig 2 formula check: groups ratio site-GR/none vs (2c+2n+1)/(4n+1)",
		header: []string{"sites", "c", "predicted", "measured", "err%"},
	}
	for _, p := range r.Points {
		t1.add(fmt.Sprint(p.Sites), ms(p.None.EvalTime), ms(p.SiteGR.EvalTime),
			ms(p.CoordGR.EvalTime), ms(p.BothGR.EvalTime))
		t2.add(fmt.Sprint(p.Sites), kb(p.None.Bytes), kb(p.SiteGR.Bytes),
			kb(p.CoordGR.Bytes), kb(p.BothGR.Bytes))
		errPct := 0.0
		if p.PredictedRatio > 0 {
			errPct = 100 * (p.MeasuredRatio - p.PredictedRatio) / p.PredictedRatio
		}
		t3.add(fmt.Sprint(p.Sites), fmt.Sprintf("%.3f", p.C),
			fmt.Sprintf("%.3f", p.PredictedRatio), fmt.Sprintf("%.3f", p.MeasuredRatio),
			fmt.Sprintf("%+.1f", errPct))
	}
	return t1.String() + "\n" + t2.String() + "\n" + t3.String()
}

// FigPoint is one (sites, off, on) measurement of a two-variant sweep.
type FigPoint struct {
	Sites   int
	Off, On Measure
}

// SweepResult is a two-variant speed-up sweep at one grouping cardinality.
type SweepResult struct {
	Title    string
	OffLabel string
	OnLabel  string
	Points   []FigPoint
}

// String renders time and bytes panels for the sweep.
func (r *SweepResult) String() string {
	t1 := &table{
		title:  r.Title + " — evaluation time (ms)",
		header: []string{"sites", r.OffLabel, r.OnLabel},
	}
	t2 := &table{
		title:  r.Title + " — data transferred (KB)",
		header: []string{"sites", r.OffLabel, r.OnLabel},
	}
	for _, p := range r.Points {
		t1.add(fmt.Sprint(p.Sites), ms(p.Off.EvalTime), ms(p.On.EvalTime))
		t2.add(fmt.Sprint(p.Sites), kb(p.Off.Bytes), kb(p.On.Bytes))
	}
	return t1.String() + "\n" + t2.String()
}

// sweep runs a two-variant speed-up experiment.
func (h *Harness) sweep(title string, q skalla.Query, offLabel string, off skalla.Options, onLabel string, on skalla.Options) (*SweepResult, error) {
	out := &SweepResult{Title: title, OffLabel: offLabel, OnLabel: onLabel}
	for n := 1; n <= h.Config.Sites; n++ {
		p := FigPoint{Sites: n}
		var err error
		if p.Off, err = h.run(n, q, off); err != nil {
			return nil, fmt.Errorf("bench: %s sites=%d %s: %w", title, n, offLabel, err)
		}
		if p.On, err = h.run(n, q, on); err != nil {
			return nil, fmt.Errorf("bench: %s sites=%d %s: %w", title, n, onLabel, err)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Fig3 reproduces the coalescing experiment: high cardinality (left
// panel) and low cardinality (right panel).
func (h *Harness) Fig3() (high, low *SweepResult, err error) {
	high, err = h.sweep("Fig 3 (left): coalescing, high cardinality",
		CoalescingQuery(HighCard), "non-coalesced", skalla.Options{},
		"coalesced", skalla.Options{Coalesce: true})
	if err != nil {
		return nil, nil, err
	}
	low, err = h.sweep("Fig 3 (right): coalescing, low cardinality",
		CoalescingQuery(LowCard), "non-coalesced", skalla.Options{},
		"coalesced", skalla.Options{Coalesce: true})
	if err != nil {
		return nil, nil, err
	}
	return high, low, nil
}

// Fig4 reproduces the synchronization reduction (without coalescing)
// experiment on both cardinalities.
func (h *Harness) Fig4() (high, low *SweepResult, err error) {
	high, err = h.sweep("Fig 4 (left): sync reduction, high cardinality",
		GroupReductionQuery(HighCard), "no sync reduction", skalla.Options{},
		"sync reduction", skalla.Options{SyncReduce: true})
	if err != nil {
		return nil, nil, err
	}
	low, err = h.sweep("Fig 4 (right): sync reduction, low cardinality",
		GroupReductionQuery(LowCard), "no sync reduction", skalla.Options{},
		"sync reduction", skalla.Options{SyncReduce: true})
	if err != nil {
		return nil, nil, err
	}
	return high, low, nil
}

// Fig5Point is one scale factor of the scale-up experiment.
type Fig5Point struct {
	Scale int
	Rows  int
	Unopt Measure // no reductions
	Opt   Measure // all reductions
}

// Fig5Result reproduces Fig. 5: scale-up on four sites with the combined
// reductions query, data size ×1..×4.
type Fig5Result struct {
	ConstGroups bool
	Points      []Fig5Point
}

// Fig5 runs the scale-up experiment. With constGroups false the group
// count grows linearly with the data (the paper's first variant);
// with constGroups true it stays fixed (the second variant, §5.3).
// The harness dataset is regenerated; call Reset to restore it.
func (h *Harness) Fig5(constGroups bool) (*Fig5Result, error) {
	const sites = 4
	if h.Config.Sites < sites {
		return nil, fmt.Errorf("bench: fig5 needs at least %d sites", sites)
	}
	q := CombinedQuery(HighCard)
	out := &Fig5Result{ConstGroups: constGroups}
	baseRows := h.Config.Rows / 2
	baseCust := h.Config.Customers / 2
	for scale := 1; scale <= 4; scale++ {
		tc := h.Config.tpcrConfig()
		tc.Rows = baseRows * scale
		tc.Customers = baseCust
		if !constGroups {
			tc.Customers = baseCust * scale
		}
		if err := h.regenerate(sites, tc); err != nil {
			return nil, fmt.Errorf("bench: fig5 scale %d: %w", scale, err)
		}
		p := Fig5Point{Scale: scale, Rows: tc.Rows}
		var err error
		if p.Unopt, err = h.run(sites, q, skalla.Options{}); err != nil {
			return nil, fmt.Errorf("bench: fig5 scale %d unopt: %w", scale, err)
		}
		if p.Opt, err = h.run(sites, q, skalla.AllOptimizations); err != nil {
			return nil, fmt.Errorf("bench: fig5 scale %d opt: %w", scale, err)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Reset restores the harness's default dataset (after Fig5 rescaling).
func (h *Harness) Reset() error {
	return h.regenerate(h.Config.Sites, h.Config.tpcrConfig())
}

// String renders the scale-up panel and the optimized-run breakdown.
func (r *Fig5Result) String() string {
	variant := "groups grow with data"
	if r.ConstGroups {
		variant = "constant group count"
	}
	t1 := &table{
		title:  "Fig 5 (left): combined reductions scale-up (" + variant + ") — evaluation time (ms)",
		header: []string{"scale", "rows", "no reductions", "all reductions"},
	}
	t2 := &table{
		title:  "Fig 5 (right): optimized run breakdown (ms)",
		header: []string{"scale", "site", "coordinator", "communication"},
	}
	for _, p := range r.Points {
		t1.add(fmt.Sprint(p.Scale), fmt.Sprint(p.Rows), ms(p.Unopt.EvalTime), ms(p.Opt.EvalTime))
		t2.add(fmt.Sprint(p.Scale), ms(p.Opt.SiteTime), ms(p.Opt.CoordTime), ms(p.Opt.CommTime))
	}
	return t1.String() + "\n" + t2.String()
}

// AblationRow measures one optimization configuration on a query.
type AblationRow struct {
	Label string
	M     Measure
}

// Ablation runs the combined query on all sites once per optimization
// configuration: none, each optimization alone, and all together. This
// extends the paper's evaluation with a per-optimization attribution.
func (h *Harness) Ablation() ([]AblationRow, error) {
	q := CombinedQuery(HighCard)
	configs := []struct {
		label string
		opts  skalla.Options
	}{
		{"none", skalla.Options{}},
		{"coalesce", skalla.Options{Coalesce: true}},
		{"group-reduce-sites", skalla.Options{GroupReduceSites: true}},
		{"group-reduce-coord", skalla.Options{GroupReduceCoord: true}},
		{"sync-reduce", skalla.Options{SyncReduce: true}},
		{"all", skalla.AllOptimizations},
	}
	var out []AblationRow
	for _, c := range configs {
		m, err := h.run(h.Config.Sites, q, c.opts)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", c.label, err)
		}
		out = append(out, AblationRow{Label: c.label, M: m})
	}
	return out, nil
}

// FormatAblation renders the ablation rows.
func FormatAblation(rows []AblationRow) string {
	t := &table{
		title:  "Ablation: combined query, each optimization alone (8 sites)",
		header: []string{"config", "rounds", "time (ms)", "bytes (KB)", "groups moved"},
	}
	for _, r := range rows {
		t.add(r.Label, fmt.Sprint(r.M.Rounds), ms(r.M.EvalTime), kb(r.M.Bytes), fmt.Sprint(r.M.Groups()))
	}
	return t.String()
}

// RunAllResults executes every experiment, returning both the human
// report and the machine-readable artifact with every figure's metrics.
func (h *Harness) RunAllResults() (string, Results, error) {
	res := Results{}
	var b strings.Builder
	fmt.Fprintf(&b, "Skalla experimental evaluation — %d sites, %d rows, %d/%d high/low-card groups\n\n",
		h.Config.Sites, h.Config.Rows, h.Config.Customers, h.Config.LowCardGroups)

	fig2, err := h.Fig2()
	if err != nil {
		return "", nil, err
	}
	b.WriteString(fig2.String() + "\n")
	res.Merge(fig2.Metrics())

	f3h, f3l, err := h.Fig3()
	if err != nil {
		return "", nil, err
	}
	b.WriteString(f3h.String() + "\n" + f3l.String() + "\n")
	res.Merge(f3h.Metrics("fig3_high"))
	res.Merge(f3l.Metrics("fig3_low"))

	f4h, f4l, err := h.Fig4()
	if err != nil {
		return "", nil, err
	}
	b.WriteString(f4h.String() + "\n" + f4l.String() + "\n")
	res.Merge(f4h.Metrics("fig4_high"))
	res.Merge(f4l.Metrics("fig4_low"))

	f5, err := h.Fig5(false)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(f5.String() + "\n")
	res.Merge(f5.Metrics())
	f5c, err := h.Fig5(true)
	if err != nil {
		return "", nil, err
	}
	b.WriteString(f5c.String() + "\n")
	res.Merge(f5c.Metrics())
	if err := h.Reset(); err != nil {
		return "", nil, err
	}

	abl, err := h.Ablation()
	if err != nil {
		return "", nil, err
	}
	b.WriteString(FormatAblation(abl) + "\n")
	res.Merge(AblationMetrics(abl))

	tree, err := TreeExperiment(h.Config)
	if err != nil {
		return "", nil, err
	}
	b.WriteString("\n" + tree.String())
	res.Merge(tree.Metrics())
	return b.String(), res, nil
}
