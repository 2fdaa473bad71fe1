package bench

//lint:deterministic benchmark JSON artifacts must encode identically for a fixed dataset

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Results is the machine-readable benchmark artifact: figure → metric →
// value. Metric names follow "<variant>_<quantity>[@<point>]" (e.g.
// "site_gr_eval_ms@s8", "opt_bytes_kb@x4"); encoding/json sorts both map
// levels, so the file is deterministic for a fixed dataset and metric
// set (timing values still vary run to run).
type Results map[string]map[string]float64

// Merge folds other's figures into r, overwriting shared metric names.
func (r Results) Merge(other Results) {
	for fig, metrics := range other {
		if r[fig] == nil {
			r[fig] = map[string]float64{}
		}
		for k, v := range metrics {
			r[fig][k] = v
		}
	}
}

// WriteFile writes the artifact as indented JSON.
func (r Results) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode results: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write results: %w", err)
	}
	return nil
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func kbF(n int64) float64         { return float64(n) / 1024 }

// measureMetrics flattens one Measure under a variant@point prefix.
func measureMetrics(into map[string]float64, variant, point string, m Measure) {
	suffix := "@" + point
	into[variant+"_eval_ms"+suffix] = msF(m.EvalTime)
	into[variant+"_bytes_kb"+suffix] = kbF(m.Bytes)
	into[variant+"_groups"+suffix] = float64(m.Groups())
	into[variant+"_rounds"+suffix] = float64(m.Rounds)
}

// Metrics flattens the group reduction experiment (Fig. 2).
func (r *Fig2Result) Metrics() Results {
	out := map[string]float64{}
	for _, p := range r.Points {
		pt := fmt.Sprintf("s%d", p.Sites)
		measureMetrics(out, "none", pt, p.None)
		measureMetrics(out, "site_gr", pt, p.SiteGR)
		measureMetrics(out, "coord_gr", pt, p.CoordGR)
		measureMetrics(out, "both_gr", pt, p.BothGR)
		out["c@"+pt] = p.C
		out["predicted_ratio@"+pt] = p.PredictedRatio
		out["measured_ratio@"+pt] = p.MeasuredRatio
	}
	return Results{"fig2": out}
}

// Metrics flattens a two-variant sweep under the given figure key (e.g.
// "fig3_high").
func (r *SweepResult) Metrics(figure string) Results {
	out := map[string]float64{}
	for _, p := range r.Points {
		pt := fmt.Sprintf("s%d", p.Sites)
		measureMetrics(out, "off", pt, p.Off)
		measureMetrics(out, "on", pt, p.On)
	}
	return Results{figure: out}
}

// Metrics flattens the scale-up experiment under "fig5_grow" or
// "fig5_const" depending on the variant that ran.
func (r *Fig5Result) Metrics() Results {
	figure := "fig5_grow"
	if r.ConstGroups {
		figure = "fig5_const"
	}
	out := map[string]float64{}
	for _, p := range r.Points {
		pt := fmt.Sprintf("x%d", p.Scale)
		out["rows@"+pt] = float64(p.Rows)
		measureMetrics(out, "unopt", pt, p.Unopt)
		measureMetrics(out, "opt", pt, p.Opt)
		out["opt_site_ms@"+pt] = msF(p.Opt.SiteTime)
		out["opt_coord_ms@"+pt] = msF(p.Opt.CoordTime)
		out["opt_comm_ms@"+pt] = msF(p.Opt.CommTime)
	}
	return Results{figure: out}
}

// AblationMetrics flattens the per-optimization ablation rows.
func AblationMetrics(rows []AblationRow) Results {
	out := map[string]float64{}
	for _, r := range rows {
		measureMetrics(out, r.Label, "s8", r.M)
	}
	return Results{"ablation": out}
}

// Metrics flattens the multi-tier topology experiment. Point labels
// ("tree fanout=4") are normalized into metric-name-safe tokens.
func (r *TreeResult) Metrics() Results {
	out := map[string]float64{"leaves": float64(r.Leaves)}
	norm := strings.NewReplacer(" ", "_", "=", "")
	for _, p := range r.Points {
		measureMetrics(out, norm.Replace(p.Label), fmt.Sprintf("relays%d", p.Relays), p.M)
	}
	return Results{"tree": out}
}
