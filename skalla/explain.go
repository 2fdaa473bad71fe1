package skalla

// This file is the EXPLAIN / EXPLAIN ANALYZE path of the SQL front-end.
// EXPLAIN plans the statement and returns the optimizer's plan as a
// one-column relation; EXPLAIN ANALYZE additionally executes it on a
// private QueryID-tagged coordinator and appends what actually happened —
// per-round coverage, exact wire bytes, and each site's self-reported
// engine/kernel profile. The default report contains no clock readings
// and is deterministic across runs of the same query on the same data,
// its exact wire byte counts included.
// Cluster.AnalyzeTiming (the -profile flag of skalla-coord) adds the
// measured durations.

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/relation"
	sqlfe "repro/internal/sql"
	"repro/internal/value"
)

// PlanCol is the single output column of EXPLAIN results.
const PlanCol = "plan"

// analyzeSeq numbers EXPLAIN ANALYZE executions process-wide. A counter,
// not a timestamp: query IDs must be deterministic for a fixed sequence
// of statements.
var analyzeSeq atomic.Int64

// sqlExplain evaluates an EXPLAIN-prefixed statement.
func (c *Cluster) sqlExplain(ctx context.Context, st *sqlfe.Statement, opts Options) (*Relation, error) {
	if st.Cube || st.Rollup {
		return nil, &sqlfe.ParseError{Err: fmt.Errorf("skalla: EXPLAIN over CUBE BY / ROLLUP BY is not supported")}
	}
	q, err := st.Query()
	if err != nil {
		return nil, err
	}
	egil := core.Egil{Catalog: c.cat, Options: opts}

	if !st.Analyze {
		plan, err := c.coord.Plan(ctx, q, st.Detail, egil)
		if err != nil {
			return nil, err
		}
		return explainRelation(plan.Explain()), nil
	}

	// ANALYZE executes on a private coordinator clone so the QueryID tag
	// never races a sibling query sharing this cluster's coordinator.
	coord := c.coord.Derive(c.clients...)
	coord.Epoch = c.coord.Epoch
	coord.QueryID = fmt.Sprintf("analyze-%06d", analyzeSeq.Add(1))
	_, stats, plan, err := coord.Run(ctx, q, st.Detail, egil)
	if err != nil {
		return nil, err
	}
	return explainRelation(core.RenderAnalyze(plan, stats, core.AnalyzeOptions{Timing: c.AnalyzeTiming})), nil
}

// RenderAnalyze renders the post-execution EXPLAIN ANALYZE report for a
// directly executed query (the skalla-coord -profile path). timing adds
// the measured durations; without it the report is deterministic for
// fixed input.
func RenderAnalyze(plan *Plan, stats *ExecStats, timing bool) string {
	return core.RenderAnalyze(plan, stats, core.AnalyzeOptions{Timing: timing})
}

// explainRelation wraps a rendered report in a one-text-column relation,
// one row per line.
func explainRelation(text string) *Relation {
	rel := relation.New(relation.MustSchema(relation.Column{Name: PlanCol, Kind: value.KindString}))
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rel.Rows = append(rel.Rows, relation.Row{value.NewString(line)})
	}
	return rel
}
