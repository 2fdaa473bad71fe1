package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/testutil"
	"repro/skalla"
)

func TestParseOpts(t *testing.T) {
	tests := []struct {
		in   string
		want skalla.Options
	}{
		{"all", skalla.AllOptimizations},
		{"none", skalla.NoOptimizations},
		{"", skalla.NoOptimizations},
		{"coalesce", skalla.Options{Coalesce: true}},
		{"group-sites,sync", skalla.Options{GroupReduceSites: true, SyncReduce: true}},
		{"coalesce, group-coord", skalla.Options{Coalesce: true, GroupReduceCoord: true}},
	}
	for _, tc := range tests {
		got, err := parseOpts(tc.in)
		if err != nil {
			t.Errorf("parseOpts(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseOpts(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	if _, err := parseOpts("bogus"); err == nil {
		t.Error("unknown optimization accepted")
	}
}

func TestBuildQuery(t *testing.T) {
	q, err := buildQuery("CustName", "", mdFlags{
		"count(*) AS n, avg(F.Quantity) AS aq ; F.CustName = B.CustName",
		"count(*) AS big ; F.CustName = B.CustName AND F.Quantity >= B.aq",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.MDs) != 2 || len(q.MDs[0].Specs()) != 2 {
		t.Errorf("query: %+v", q)
	}
	if q.Keys()[0] != "CustName" {
		t.Errorf("keys: %v", q.Keys())
	}

	q, err = buildQuery("a, b", "F.x > 1", mdFlags{"count(*) AS n ; TRUE"})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Base.Cols) != 2 || q.Base.Where == nil {
		t.Errorf("base: %+v", q.Base)
	}

	bad := []mdFlags{
		{"no-semicolon"},
		{"nope(*) AS x ; TRUE"},
		{"count(*) AS n ; (("},
	}
	for _, flags := range bad {
		if _, err := buildQuery("a", "", flags); err == nil {
			t.Errorf("buildQuery(%v) should fail", flags)
		}
	}
}

// TestBuildQueryCallsWithCommas: an -md aggregate list is read by the query
// language's parser, so a call's own commas (a multi-argument function, an
// IN list) and a ';' inside a string stay in the call.
func TestBuildQueryCallsWithCommas(t *testing.T) {
	q, err := buildQuery("CustName", "", mdFlags{
		"sum(least(F.Quantity, 10)) AS s, count(CASE WHEN F.RegionKey IN (1, 2) THEN 1 END) -> c ; " +
			"F.CustName = B.CustName AND F.MktSegment != 'a;b'",
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := q.MDs[0].Specs()
	if len(specs) != 2 || specs[0].String() != "sum(least(F.Quantity, 10)) AS s" ||
		specs[1].String() != "count(CASE WHEN F.RegionKey IN (1, 2) THEN 1 END) AS c" {
		t.Errorf("specs: %v", specs)
	}
	if got := q.MDs[0].Thetas[0].String(); got != "F.CustName = B.CustName AND F.MktSegment != 'a;b'" {
		t.Errorf("condition: %s", got)
	}
}

func TestMDFlags(t *testing.T) {
	var m mdFlags
	m.Set("one")
	m.Set("two")
	if len(m) != 2 || !strings.Contains(m.String(), "one") {
		t.Errorf("mdFlags: %v", m)
	}
}

// TestReadmeFlagTables: the README's flag tables and the registered flags
// name the same flags with the same defaults.
func TestReadmeFlagTables(t *testing.T) {
	fs := flag.NewFlagSet("skalla-coord", flag.ContinueOnError)
	bindFlags(fs)
	testutil.CheckFlagTable(t, "../../README.md", "skalla-coord", fs)
}
