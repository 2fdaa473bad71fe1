package skalla

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/relation"
	sqlfe "repro/internal/sql"
)

// SQL parses and executes a SQL statement against the cluster:
//
//	SELECT <cols, aggregates> FROM <rel>
//	[WHERE ...] {GROUP BY ... | CUBE BY ...} [HAVING ...]
//
// GROUP BY statements compile to a distributed GMDJ query; CUBE BY
// statements run the distributed cube. HAVING is evaluated on the
// synchronized result at the coordinator (it references super-aggregates,
// which exist nowhere else). The output columns follow the select list.
// A partial execution (AllowPartial) fails, naming the lost sites.
func (c *Cluster) SQL(query string, opts Options) (*Relation, error) {
	return c.SQLContext(context.Background(), query, opts)
}

// SQLContext is SQL under a context: cancelling ctx (or hitting its
// deadline) aborts the distributed execution's in-flight site calls and
// returns promptly. The concurrent serve mode relies on this for
// per-query cancellation isolation.
func (c *Cluster) SQLContext(ctx context.Context, query string, opts Options) (*Relation, error) {
	st, err := sqlfe.Parse(query)
	if err != nil {
		return nil, err
	}
	return c.sqlStatement(ctx, st, opts)
}

// sqlStatement executes a parsed statement.
func (c *Cluster) sqlStatement(ctx context.Context, st *sqlfe.Statement, opts Options) (*Relation, error) {
	if st.Explain {
		return c.sqlExplain(ctx, st, opts)
	}

	var rel *Relation
	var err error
	switch {
	case st.Cube || st.Rollup:
		build := rollupSets
		if st.Cube {
			build = cubeSets
		}
		sets, err := build(st.GroupCols)
		if err != nil {
			return nil, &sqlfe.ParseError{Err: err}
		}
		rel, err = groupingSets(ctx, c, st.Detail, st.GroupCols, sets, AggList(st.Aggs), st.Where, opts)
		if err != nil {
			return nil, err
		}
	default:
		q, err := st.Query()
		if err != nil {
			return nil, err
		}
		res, err := c.QueryContext(ctx, q, st.Detail, opts)
		if err != nil {
			return nil, err
		}
		if rel, err = res.whole(); err != nil {
			return nil, err
		}
	}

	if st.Having != nil {
		rel, err = filterHaving(rel, st.Having)
		if err != nil {
			return nil, err
		}
	}
	rel, err = projectColumns(rel, st.SelectCols)
	if err != nil {
		return nil, err
	}
	if len(st.OrderBy) > 0 {
		keys := make([]relation.SortKey, len(st.OrderBy))
		for i, o := range st.OrderBy {
			keys[i] = relation.SortKey{Name: o.Col, Desc: o.Desc}
		}
		if err := rel.SortKeys(keys...); err != nil {
			return nil, fmt.Errorf("skalla: ORDER BY: %w", err)
		}
	}
	if st.Limit > 0 && rel.Len() > st.Limit {
		rel.Rows = rel.Rows[:st.Limit]
	}
	return rel, nil
}

// filterHaving keeps the result rows satisfying the HAVING predicate.
func filterHaving(rel *Relation, having expr.Expr) (*Relation, error) {
	bound, err := expr.Bind(having, expr.Binding{Detail: rel.Schema})
	if err != nil {
		return nil, fmt.Errorf("skalla: HAVING: %w", err)
	}
	out := relation.New(rel.Schema)
	for _, row := range rel.Rows {
		ok, err := bound.EvalBool(nil, row)
		if err != nil {
			return nil, fmt.Errorf("skalla: HAVING: %w", err)
		}
		if ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// projectColumns reorders (and narrows) the result to the select list. A
// select list naming the schema in order selects the result itself.
func projectColumns(rel *Relation, cols []string) (*Relation, error) {
	if slices.Equal(cols, rel.Schema.Names()) {
		return rel, nil
	}
	out, err := rel.Project(cols)
	if err != nil {
		return nil, fmt.Errorf("skalla: select list: %w", err)
	}
	return out, nil
}
