package catalog_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/tpcr"
)

// BenchmarkIsPartitionAttr is the partition proof of the serve workload's
// GROUP BY CustName statement: four sites and the 2 000 CustName values
// of its value domains. A proved verdict is a memo lookup; a cold one, the
// first after a catalog change, checks the sets pairwise disjoint.
func BenchmarkIsPartitionAttr(b *testing.B) {
	ids := []string{"site0", "site1", "site2", "site3"}
	cfg := tpcr.Config{Rows: 48000, Customers: 2000, LowCardGroups: 200}
	cat := catalog.New(ids...)
	if err := tpcr.FillCatalog(cat, ids, cfg); err != nil {
		b.Fatal(err)
	}
	if err := tpcr.FillValueDomains(cat, ids, cfg); err != nil {
		b.Fatal(err)
	}
	for _, cold := range []bool{false, true} {
		name := "proved"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					cat.Invalidate()
				}
				if !cat.IsPartitionAttr("CustName") {
					b.Fatal("CustName is not a partition attribute")
				}
			}
		})
	}
}
