package sql

import "testing"

// BenchmarkSQLParse parses three statements of the benchmark's serve mix,
// the parse every served query pays.
func BenchmarkSQLParse(b *testing.B) {
	stmts := []string{
		"SELECT RegionKey, count(*) AS n, sum(Quantity) AS qty FROM tpcr GROUP BY RegionKey",
		"SELECT RegionKey, MktSegment, count(*) AS n, sum(Quantity) AS qty, max(ExtendedPrice) AS top FROM tpcr CUBE BY RegionKey, MktSegment",
		"SELECT CustGroup, count(*) AS n, max(Quantity) AS top FROM tpcr WHERE Discount > 0.02 GROUP BY CustGroup HAVING n > 100 ORDER BY n DESC, CustGroup LIMIT 20",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range stmts {
			if _, err := Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
