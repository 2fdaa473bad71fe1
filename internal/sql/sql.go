// Package sql implements a small SQL front-end for Skalla: the role the
// paper assigns to the query generator, which "constructs query plans
// from the OLAP queries" before Egil optimizes them as GMDJ expressions.
//
// The grammar, read by recursive descent over the expression language's
// tokens (expr.Parser); keywords in any case, a trailing ";" tolerated:
//
//	statement = [EXPLAIN [ANALYZE]] SELECT item {"," item} FROM name
//	            [WHERE expr] (GROUP | CUBE | ROLLUP) BY name {"," name}
//	            [HAVING expr] [ORDER BY key {"," key}] [LIMIT int]
//	item      = name [AS name] | call [AS name]
//	call      = aggregate "(" ("*" | expr) ")"     (agg.ParseCall)
//	key       = name [ASC | DESC]
//
// A name is an identifier; expr is an expression (expr.Parse). A column
// item must be a grouping column and keeps its name; an unnamed call is
// named from its text (avg(Quantity) → avg_quantity). HAVING may name the
// grouping columns and aggregates, ORDER BY the select list. GROUP BY
// compiles to a single-MD GMDJ query (group equality plus the WHERE
// condition as θ); CUBE and ROLLUP mark the statement for grouping-sets
// execution. HAVING is returned as a predicate over the result relation,
// applied after synchronization (it references super-aggregates, which
// only exist at the coordinator).
package sql

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/gmdj"
)

// Statement is a parsed and translated SQL query.
type Statement struct {
	// Explain marks an EXPLAIN-prefixed statement: the caller should plan
	// the query and render the plan instead of executing it.
	Explain bool
	// Analyze marks EXPLAIN ANALYZE: plan, execute, and render the plan
	// together with the measured per-round/per-site execution profile.
	Analyze bool
	// Detail is the FROM relation.
	Detail string
	// GroupCols are the grouping (or cube dimension) columns.
	GroupCols []string
	// Aggs are the aggregates of the select list.
	Aggs []agg.Spec
	// SelectCols is the output column order, referencing grouping
	// columns and aggregate aliases.
	SelectCols []string
	// Where is the detail-row filter (columns qualified with F), or nil.
	Where expr.Expr
	// Having filters the result relation, or nil.
	Having expr.Expr
	// Cube marks CUBE BY statements.
	Cube bool
	// Rollup marks ROLLUP BY statements.
	Rollup bool
	// OrderBy lists result sort keys (names from the select list).
	OrderBy []OrderKey
	// Limit caps the result rows; 0 means no limit.
	Limit int
}

// OrderKey is one ORDER BY item.
type OrderKey struct {
	Col  string
	Desc bool
}

// Query translates a GROUP BY statement into its GMDJ form: a single MD
// whose condition equates every grouping column and conjoins the WHERE
// filter. Cube statements have no single-query form; execute them with a
// cube evaluator over (GroupCols, Aggs).
func (s *Statement) Query() (gmdj.Query, error) {
	if s.Cube || s.Rollup {
		return gmdj.Query{}, fmt.Errorf("sql: CUBE BY / ROLLUP BY statements need a grouping-sets evaluator, not Query")
	}
	var conjs []expr.Expr
	for _, c := range s.GroupCols {
		conjs = append(conjs, expr.Eq(expr.Ref("F", c), expr.Ref("B", c)))
	}
	if s.Where != nil {
		conjs = append(conjs, s.Where)
	}
	aggs := s.Aggs
	if len(aggs) == 0 {
		// Pure DISTINCT projection: carry a count so the GMDJ machinery
		// applies; callers project it away via SelectCols.
		aggs = []agg.Spec{{Func: agg.Count, As: distinctCountCol}}
	}
	q := gmdj.Query{
		Base: gmdj.BaseDef{Cols: s.GroupCols, Where: s.Where},
		MDs: []gmdj.MD{{
			Aggs:   [][]agg.Spec{aggs},
			Thetas: []expr.Expr{expr.And(conjs...)},
		}},
	}
	return q, nil
}

// distinctCountCol is the synthetic aggregate carried by aggregate-free
// SELECT DISTINCT-style statements.
const distinctCountCol = "__distinct_n"

// ParseError wraps every front-end rejection of a statement, so servers
// can classify caller mistakes (errors.As → HTTP 400) apart from
// execution failures. The message is unchanged from the wrapped error.
type ParseError struct {
	Err error
}

// Error implements error.
func (e *ParseError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse parses one statement. A trailing semicolon is tolerated. Every
// returned error is a *ParseError.
func Parse(input string) (*Statement, error) {
	st, err := parse(expr.NewParser(strings.TrimSpace(input)))
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	return st, nil
}

// selectItem is one entry of the select list: a column col with its alias
// as, if any, or an aggregate spec when col is empty.
type selectItem struct {
	col, as string
	spec    agg.Spec
}

func parse(p *expr.Parser) (*Statement, error) {
	st := &Statement{}
	if p.Word("EXPLAIN") {
		st.Explain = true
		st.Analyze = p.Word("ANALYZE")
	}
	if !p.Word("SELECT") {
		return nil, p.Errorf("sql: expected SELECT")
	}
	var items []selectItem
	used := map[string]bool{}
	for more := true; more; more = p.Op(",") {
		it, err := parseSelectItem(p, used)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	if !p.Word("FROM") {
		return nil, p.Errorf("sql: expected FROM")
	}
	var ok bool
	if st.Detail, ok = p.Ident(); !ok {
		return nil, p.Errorf("sql: expected relation name after FROM")
	}
	if p.Word("WHERE") {
		w, err := p.Expr()
		if err != nil {
			return nil, fmt.Errorf("sql: WHERE: %w", err)
		}
		st.Where = qualifyDetail(w)
	}
	switch {
	case p.Word("GROUP"):
	case p.Word("CUBE"):
		st.Cube = true
	case p.Word("ROLLUP"):
		st.Rollup = true
	default:
		return nil, p.Errorf("sql: statement needs GROUP BY, CUBE BY, or ROLLUP BY")
	}
	if !p.Word("BY") {
		return nil, p.Errorf("sql: expected BY")
	}
	for more := true; more; more = p.Op(",") {
		col, ok := p.Ident()
		if !ok {
			return nil, p.Errorf("sql: expected a grouping column")
		}
		st.GroupCols = append(st.GroupCols, col)
	}
	for _, it := range items {
		switch {
		case it.col == "":
			st.Aggs = append(st.Aggs, it.spec)
			it.col = it.spec.As
		case !hasName(st.GroupCols, it.col):
			return nil, fmt.Errorf("sql: select column %q is not in the grouping columns", it.col)
		case it.as != "" && it.as != it.col:
			return nil, fmt.Errorf("sql: select column %q cannot be renamed to %q: grouping columns keep their names", it.col, it.as)
		}
		st.SelectCols = append(st.SelectCols, it.col)
	}
	if p.Word("HAVING") {
		var err error
		if st.Having, err = p.Expr(); err != nil {
			return nil, fmt.Errorf("sql: HAVING: %w", err)
		}
		for _, c := range expr.Cols(st.Having) {
			isAgg := slices.ContainsFunc(st.Aggs, func(a agg.Spec) bool { return strings.EqualFold(a.As, c.Name) })
			if c.Qual != "" || !isAgg && !hasName(st.GroupCols, c.Name) {
				return nil, fmt.Errorf("sql: HAVING: %s is neither a grouping column nor an aggregate name", c)
			}
		}
	}
	if p.Word("ORDER") {
		if !p.Word("BY") {
			return nil, p.Errorf("sql: expected BY")
		}
		for more := true; more; more = p.Op(",") {
			col, ok := p.Ident()
			if !ok {
				return nil, p.Errorf("sql: expected an ORDER BY column")
			}
			if !hasName(st.SelectCols, col) {
				return nil, fmt.Errorf("sql: ORDER BY: %s is not in the select list", col)
			}
			desc := p.Word("DESC")
			if !desc {
				p.Word("ASC")
			}
			st.OrderBy = append(st.OrderBy, OrderKey{Col: col, Desc: desc})
		}
	}
	if p.Word("LIMIT") {
		n, ok := p.Int()
		if !ok || n <= 0 {
			return nil, p.Errorf("sql: LIMIT needs a positive integer")
		}
		st.Limit = int(n)
	}
	p.Op(";")
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("sql: %w", err)
	}
	return st, nil
}

// hasName reports whether names holds name, in any case, as a relation
// schema finds its columns.
func hasName(names []string, name string) bool {
	return slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, name) })
}

// parseSelectItem reads a column or an aggregate call, either with an
// optional "AS name". An unnamed call is named from its source text,
// avg(Quantity) → avg_quantity, with _2, _3 ... on repeats; used holds the
// aggregates' output names so far.
func parseSelectItem(p *expr.Parser, used map[string]bool) (selectItem, error) {
	if !p.AtCall() {
		col, ok := p.Ident()
		if !ok {
			return selectItem{}, p.Errorf("sql: expected a column or an aggregate")
		}
		as, err := alias(p)
		return selectItem{col: col, as: as}, err
	}
	from := p.Pos()
	spec, err := agg.ParseCall(p)
	if err != nil {
		return selectItem{}, fmt.Errorf("sql: select item: %w", err)
	}
	if spec.Arg != nil {
		spec.Arg = qualifyDetail(spec.Arg)
	}
	if spec.As, err = alias(p); err != nil {
		return selectItem{}, err
	}
	if spec.As == "" {
		spec.As = defaultAlias(strings.TrimSpace(p.Text(from, p.Pos())), used)
	}
	if used[spec.As] {
		return selectItem{}, fmt.Errorf("sql: duplicate output column %q", spec.As)
	}
	used[spec.As] = true
	return selectItem{spec: spec}, nil
}

// alias reads an optional "AS name".
func alias(p *expr.Parser) (string, error) {
	if !p.Word("AS") {
		return "", nil
	}
	if name, ok := p.Ident(); ok {
		return name, nil
	}
	return "", p.Errorf("sql: expected a name after AS")
}

// defaultAlias names an aggregate call from its text: the function name,
// then the argument's letters, digits and underscores, dots as
// underscores, all lower-cased.
func defaultAlias(call string, used map[string]bool) string {
	open := strings.Index(call, "(")
	alias := strings.ToLower(strings.TrimSpace(call[:open]))
	arg := strings.ToLower(strings.TrimSpace(strings.TrimSuffix(call[open+1:], ")")))
	if arg != "*" && arg != "" {
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
				return r
			case r == '.':
				return '_'
			default:
				return -1
			}
		}, arg)
		if clean != "" {
			alias += "_" + clean
		}
	}
	base := alias
	for i := 2; used[alias]; i++ {
		alias = fmt.Sprintf("%s_%d", base, i)
	}
	return alias
}

// qualifyDetail rewrites unqualified column references to the detail
// alias F, so conditions bind unambiguously when base and detail share
// column names.
func qualifyDetail(e expr.Expr) expr.Expr {
	return expr.Rewrite(e, func(x expr.Expr) expr.Expr {
		if c, ok := x.(expr.Col); ok && c.Qual == "" {
			return expr.Col{Qual: "F", Name: c.Name}
		}
		return nil
	})
}
