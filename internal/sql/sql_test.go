package sql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/agg"
)

func TestParseBasicGroupBy(t *testing.T) {
	st, err := Parse("SELECT Region, count(*), avg(Sales) FROM sales GROUP BY Region")
	if err != nil {
		t.Fatal(err)
	}
	if st.Detail != "sales" || st.Cube {
		t.Errorf("statement: %+v", st)
	}
	if len(st.GroupCols) != 1 || st.GroupCols[0] != "Region" {
		t.Errorf("group cols: %v", st.GroupCols)
	}
	if len(st.Aggs) != 2 || st.Aggs[0].Func != agg.Count || st.Aggs[1].Func != agg.Avg {
		t.Errorf("aggs: %v", st.Aggs)
	}
	// Auto-aliases.
	if st.Aggs[0].As != "count" || st.Aggs[1].As != "avg_sales" {
		t.Errorf("aliases: %s, %s", st.Aggs[0].As, st.Aggs[1].As)
	}
	if len(st.SelectCols) != 3 || st.SelectCols[0] != "Region" {
		t.Errorf("select cols: %v", st.SelectCols)
	}
}

func TestParseAliasesAndWhere(t *testing.T) {
	st, err := Parse(`SELECT Region, sum(Sales) AS total
		FROM sales WHERE Product = 'pen' AND Sales > 3 GROUP BY Region`)
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggs[0].As != "total" {
		t.Errorf("alias: %s", st.Aggs[0].As)
	}
	// WHERE columns are qualified with the detail alias.
	if got := st.Where.String(); got != "F.Product = 'pen' AND F.Sales > 3" {
		t.Errorf("where: %s", got)
	}
	q, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	theta := q.MDs[0].Thetas[0].String()
	if !strings.Contains(theta, "F.Region = B.Region") || !strings.Contains(theta, "F.Product = 'pen'") {
		t.Errorf("theta: %s", theta)
	}
	if q.Base.Where == nil {
		t.Error("base filter missing")
	}
}

func TestParseHaving(t *testing.T) {
	st, err := Parse("SELECT Region, count(*) AS n FROM sales GROUP BY Region HAVING n > 10")
	if err != nil {
		t.Fatal(err)
	}
	if st.Having == nil || st.Having.String() != "n > 10" {
		t.Errorf("having: %v", st.Having)
	}
}

func TestParseCube(t *testing.T) {
	st, err := Parse("SELECT Region, Product, sum(Sales) FROM sales CUBE BY Region, Product")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cube || len(st.GroupCols) != 2 {
		t.Errorf("cube statement: %+v", st)
	}
	if _, err := st.Query(); err == nil {
		t.Error("Query() on a cube statement should error")
	}
}

func TestParseDistinctProjection(t *testing.T) {
	st, err := Parse("SELECT Region, Product FROM sales GROUP BY Region, Product")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Aggs) != 0 {
		t.Errorf("aggs: %v", st.Aggs)
	}
	q, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic count is carried but not selected.
	if len(q.MDs[0].Specs()) != 1 || q.MDs[0].Specs()[0].As != distinctCountCol {
		t.Errorf("synthetic agg: %v", q.MDs[0].Specs())
	}
	if len(st.SelectCols) != 2 {
		t.Errorf("select cols: %v", st.SelectCols)
	}
}

func TestParseAutoAliasDedup(t *testing.T) {
	st, err := Parse("SELECT Region, sum(Sales), sum(Sales) FROM sales GROUP BY Region")
	if err != nil {
		t.Fatal(err)
	}
	if st.Aggs[0].As == st.Aggs[1].As {
		t.Errorf("duplicate auto aliases: %s", st.Aggs[0].As)
	}
}

func TestParseKeywordsInStrings(t *testing.T) {
	st, err := Parse("SELECT Region, count(*) FROM sales WHERE Product = 'group by having from' GROUP BY Region")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Where.String(), "group by having from") {
		t.Errorf("where: %s", st.Where)
	}
}

func TestParseComplexExpressions(t *testing.T) {
	st, err := Parse(`SELECT Region, sum(Sales * (1 - Discount)) AS revenue
		FROM sales WHERE Sales BETWEEN 1 AND 100 GROUP BY Region HAVING revenue >= 50`)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Aggs[0].Arg.String(); got != "F.Sales * (1 - F.Discount)" {
		t.Errorf("agg arg: %s", got)
	}
	if !strings.Contains(st.Where.String(), "F.Sales BETWEEN 1 AND 100") {
		t.Errorf("where: %s", st.Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM t GROUP BY a",
		"SELECT a FROM t",                      // no GROUP BY
		"SELECT a FROM t GROUP a",              // missing BY
		"SELECT a FROM t GROUP BY",             // empty group list
		"SELECT b FROM t GROUP BY a",           // non-grouped column
		"SELECT a, frob(x) FROM t GROUP BY a",  // unknown aggregate
		"SELECT a FROM GROUP BY a",             // missing relation
		"SELECT a FROM t WHERE (( GROUP BY a",  // bad where
		"SELECT a FROM t GROUP BY a HAVING ((", // bad having
		"SELECT a FROM t GROUP BY a extra",     // trailing junk
		"SELECT a, count(*) AS a2, count(*) AS a2 FROM t GROUP BY a", // dup alias
		"SELECT 'oops",                                             // unterminated string
		"SELECT a FROM t GROUP BY a b",                             // bad group col
		"SELECT a AS b FROM t GROUP BY a",                          // a grouping column keeps its name
		"SELECT a, count(*) AS n FROM t GROUP BY a ORDER BY m",     // not in the select list
		"SELECT a, count(*) AS n FROM t GROUP BY a HAVING m > 1",   // not a result column
		"SELECT a, count(*) AS n FROM t GROUP BY a HAVING t.n > 1", // qualified
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	st, err := Parse("select Region, Count(*) from sales where Sales > 1 group by Region having count > 0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Detail != "sales" || len(st.Aggs) != 1 || st.Having == nil {
		t.Errorf("statement: %+v", st)
	}
}

func TestSemicolonTolerated(t *testing.T) {
	if _, err := Parse("SELECT a, count(*) FROM t GROUP BY a;"); err != nil {
		t.Errorf("trailing semicolon rejected: %v", err)
	}
}

// TestParseRename: a grouping column may repeat its own name after AS, and
// renaming it is refused, since the result column keeps the grouping name.
func TestParseRename(t *testing.T) {
	if _, err := Parse("SELECT Region AS Region, count(*) FROM sales GROUP BY Region"); err != nil {
		t.Errorf("an alias repeating the column: %v", err)
	}
	_, err := Parse("SELECT Region AS r, count(*) FROM sales GROUP BY Region")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Errorf("renamed grouping column: %v, want a *ParseError", err)
	}
}

// TestParseCallSyntax: aggregate calls in the select list are read by the
// expression grammar, so commas, keywords and arrows inside a call stay in
// it, and a keyword may touch punctuation.
func TestParseCallSyntax(t *testing.T) {
	for in, want := range map[string]string{
		"SELECT a, sum(least(x, 10)) AS s FROM t GROUP BY a":                         "sum(least(F.x, 10)) AS s",
		"SELECT a, count(x IN (1, 2)) FROM t GROUP BY a":                             "count(F.x IN (1, 2)) AS count_xin12",
		"SELECT a, max(CASE WHEN x > 0 THEN '->' ELSE y END) AS m FROM t GROUP BY a": "max(CASE WHEN F.x > 0 THEN '->' ELSE F.y END) AS m",
		"SELECT a,count(*)AS n FROM t GROUP BY a":                                    "count(*) AS n",
	} {
		st, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got := st.Aggs[0].String(); got != want {
			t.Errorf("Parse(%q): aggregate %s, want %s", in, got, want)
		}
	}
}
