package core

//lint:deterministic EXPLAIN ANALYZE must render identically run to run

import (
	"fmt"
	"strings"
	"time"
)

// AnalyzeOptions controls RenderAnalyze.
type AnalyzeOptions struct {
	// Timing includes the measured durations (site/coord/comm/wall times
	// and the straggler ratio). Off by default: the timing-free output is
	// fully deterministic for a fixed input, which is what golden tests
	// and diffable tooling need.
	Timing bool
}

// RenderAnalyze renders the EXPLAIN ANALYZE report: the optimizer's plan
// followed by what actually happened — per-round coverage, exact wire
// bytes, group movement, and the per-site breakdown, which for a
// QueryID-tagged execution includes each site's self-reported engine,
// kernel rows, and outcome. Without AnalyzeOptions.Timing the output
// contains no clock readings and is deterministic across runs of the same
// query on the same data, its exact wire byte counts included.
func RenderAnalyze(plan *Plan, stats *ExecStats, opt AnalyzeOptions) string {
	var b strings.Builder
	b.WriteString(plan.Explain())
	if stats == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "analyze: %d round(s) executed\n", len(stats.Rounds))
	for i := range stats.Rounds {
		r := &stats.Rounds[i]
		fmt.Fprintf(&b, "  round %s: %d/%d sites, %d B to sites / %d B from sites, %d groups shipped / %d received",
			r.Name, len(r.Responded()), len(r.Sites),
			r.BytesToSites, r.BytesFromSites, r.GroupsShipped, r.GroupsReceived)
		if r.Resumed {
			b.WriteString(" (resumed)")
		}
		if opt.Timing {
			fmt.Fprintf(&b, ", site(max) %s, coord %s, comm %s",
				r.SiteTime.Round(time.Microsecond),
				r.CoordTime.Round(time.Microsecond),
				r.CommTime.Round(time.Microsecond))
		}
		b.WriteByte('\n')
		for _, s := range r.Sites {
			if s.Lost {
				fmt.Fprintf(&b, "    %s: lost (%s)\n", s.Site, s.Err)
				continue
			}
			fmt.Fprintf(&b, "    %s: shipped %d rows, returned %d rows", s.Site, s.RowsShipped, s.RowsReturned)
			if s.Replays > 0 {
				fmt.Fprintf(&b, ", %d replay(s)", s.Replays)
			}
			if s.Hedges > 0 {
				fmt.Fprintf(&b, ", %d hedge(s)", s.Hedges)
			}
			if r := s.Remote; r != nil {
				if r.Engine != "" {
					fmt.Fprintf(&b, ", engine %s", r.Engine)
				}
				if r.VecRows > 0 {
					fmt.Fprintf(&b, ", vec rows %d (selected %d)", r.VecRows, r.VecSelected)
				}
				fmt.Fprintf(&b, ", outcome %s", r.Outcome)
			}
			if opt.Timing {
				fmt.Fprintf(&b, ", compute %s", s.Compute.Round(time.Microsecond))
			}
			b.WriteByte('\n')
		}
		if opt.Timing {
			if ratio := r.StragglerRatio(); ratio > 0 {
				fmt.Fprintf(&b, "    straggler ratio %.2fx (slowest %s)\n", ratio, r.SlowestSite())
			}
		}
		if imb := r.RowImbalance(); imb > 0 {
			fmt.Fprintf(&b, "    row imbalance %.2fx\n", imb)
		}
	}
	fmt.Fprintf(&b, "totals: %d bytes moved, %d groups moved", stats.Bytes(), stats.Groups())
	if opt.Timing {
		fmt.Fprintf(&b, ", eval %s, wall %s",
			stats.EvalTime().Round(time.Microsecond), stats.Wall.Round(time.Microsecond))
	}
	if stats.Partial() {
		fmt.Fprintf(&b, " (PARTIAL: lost %s)", strings.Join(stats.LostSites(), ", "))
	}
	b.WriteByte('\n')
	return b.String()
}
