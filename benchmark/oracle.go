package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/skalla"
)

// expected is what one operation must return: the exact bytes of its
// sorted result, and the row count the timed loop checks on every
// iteration (comparing bytes there would time the oracle, not the system).
type expected struct {
	bytes []byte
	rows  int
}

// canonical renders a result as CSV bytes. Results with no order of their
// own are sorted on every column first; ordered ones (ORDER BY) are kept
// as returned, so a wrong order is a wrong answer.
func canonical(rel *relation.Relation, ordered bool) ([]byte, error) {
	if !ordered {
		rel = &relation.Relation{Schema: rel.Schema, Rows: append([]relation.Row(nil), rel.Rows...)}
		if err := rel.SortBy(rel.Schema.Names()...); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracle computes the expected result of every operation of the workload
// without the distributed system: the GMDJ query through the centralized
// reference evaluator over the concatenated partitions, each SQL statement
// on a one-site in-process cluster holding the same rows.
func oracle(e *env) ([]expected, error) {
	whole := relation.New(e.parts[0].Schema)
	for _, p := range e.parts {
		whole.Rows = append(whole.Rows, p.Rows...)
	}
	var results []*relation.Relation
	if len(e.w.sql) == 0 {
		rel, err := gmdj.EvalQuery(whole, e.query)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		results = append(results, rel)
	} else {
		one, err := skalla.NewLocalCluster(skalla.ClusterConfig{Sites: 1})
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		defer one.Close()
		if err := one.Load(detail, []*relation.Relation{whole}); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for i, stmt := range e.w.sql {
			rel, err := one.SQL(stmt, skalla.NoOptimizations)
			if err != nil {
				return nil, fmt.Errorf("oracle: statement %d: %w", i, err)
			}
			results = append(results, rel)
		}
	}
	want := make([]expected, len(results))
	for i, rel := range results {
		b, err := canonical(rel, e.ordered(i))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		want[i] = expected{bytes: b, rows: rel.Len()}
	}
	return want, nil
}

// ordered reports whether operation op returns rows in an order of its
// own (an ORDER BY statement).
func (e *env) ordered(op int) bool {
	return len(e.w.sql) > 0 && strings.Contains(strings.ToUpper(e.w.sql[op]), " ORDER BY ")
}
