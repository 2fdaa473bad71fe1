package tpcr

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Rows: 2000, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !value.Equal(a.Rows[i][j], b.Rows[i][j]) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
	c := Generate(Config{Rows: 2000, Seed: 8})
	same := true
	for i := range a.Rows {
		if !value.Equal(a.Rows[i][10], c.Rows[i][10]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

// TestPartitionUnion: the per-site partitions are a partition of the full
// dataset — disjoint and complete.
func TestPartitionUnion(t *testing.T) {
	cfg := Config{Rows: 3000, Seed: 3}
	whole := Generate(cfg)
	nSites := 4
	total := 0
	nkIdx, _ := Schema().MustLookup("NationKey")
	seenNations := map[int64]int{}
	for s := 0; s < nSites; s++ {
		part, err := GeneratePartition(cfg, s, nSites)
		if err != nil {
			t.Fatal(err)
		}
		total += part.Len()
		for _, row := range part.Rows {
			nk := row[nkIdx].Int()
			if int(nk)%nSites != s {
				t.Fatalf("site %d has nation %d", s, nk)
			}
			seenNations[nk] = s
		}
	}
	if total != whole.Len() {
		t.Errorf("partitions have %d rows, whole has %d", total, whole.Len())
	}
	if _, err := GeneratePartition(cfg, 9, 4); err == nil {
		t.Error("bad partition index accepted")
	}
}

func TestFunctionalDependencies(t *testing.T) {
	cfg := Config{Rows: 2000, Seed: 5}.Defaults()
	r := Generate(cfg)
	ck, _ := Schema().MustLookup("CustKey")
	cn, _ := Schema().MustLookup("CustName")
	nk, _ := Schema().MustLookup("NationKey")
	rk, _ := Schema().MustLookup("RegionKey")
	nameToKey := map[string]int64{}
	keyToNation := map[int64]int64{}
	for _, row := range r.Rows {
		if prev, ok := nameToKey[row[cn].S]; ok && prev != row[ck].Int() {
			t.Fatal("CustName does not determine CustKey")
		}
		nameToKey[row[cn].S] = row[ck].Int()
		if prev, ok := keyToNation[row[ck].Int()]; ok && prev != row[nk].Int() {
			t.Fatal("CustKey does not determine NationKey")
		}
		keyToNation[row[ck].Int()] = row[nk].Int()
		if row[rk].Int() != row[nk].Int()%5 {
			t.Fatal("RegionKey != NationKey % 5")
		}
		if row[nk].Int() < 0 || row[nk].Int() >= int64(cfg.Nations) {
			t.Fatalf("NationKey %d out of range", row[nk].Int())
		}
	}
}

func TestCardinalities(t *testing.T) {
	cfg := Config{Rows: 20000, Customers: 150, Parts: 40, Seed: 11}
	r := Generate(cfg)
	ck, _ := Schema().MustLookup("CustKey")
	pk, _ := Schema().MustLookup("PartKey")
	custs := map[int64]struct{}{}
	parts := map[int64]struct{}{}
	for _, row := range r.Rows {
		custs[row[ck].Int()] = struct{}{}
		parts[row[pk].Int()] = struct{}{}
	}
	if len(custs) != 150 {
		t.Errorf("distinct customers = %d, want 150", len(custs))
	}
	if len(parts) != 40 {
		t.Errorf("distinct parts = %d, want 40", len(parts))
	}
}

func TestMeasureRanges(t *testing.T) {
	r := Generate(Config{Rows: 5000, Seed: 13})
	q, _ := Schema().MustLookup("Quantity")
	d, _ := Schema().MustLookup("Discount")
	sd, _ := Schema().MustLookup("ShipDate")
	od, _ := Schema().MustLookup("OrderDate")
	for _, row := range r.Rows {
		if row[q].Int() < 1 || row[q].Int() > 50 {
			t.Fatalf("Quantity %d out of range", row[q].Int())
		}
		if row[d].Float() < 0 || row[d].Float() > 0.1 {
			t.Fatalf("Discount %v out of range", row[d])
		}
		if row[sd].Int() <= row[od].Int() {
			t.Fatal("ShipDate not after OrderDate")
		}
	}
}

func TestGenParamsRoundTrip(t *testing.T) {
	cfg := Config{Rows: 123, Customers: 45, Parts: 6, Suppliers: 7, Nations: 8, LowCardGroups: 16, Seed: 9}
	back := ConfigFromParams(GenParams(cfg))
	if back != cfg {
		t.Errorf("round trip: %+v != %+v", back, cfg)
	}
}

func TestGeneratorAdapter(t *testing.T) {
	spec := &transport.GenSpec{
		Kind: "tpcr", Params: GenParams(Config{Rows: 500, Seed: 1}),
		Site: 1, NumSites: 2,
	}
	r, err := Generator(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Error("empty partition")
	}
	var _ *relation.Relation = r
}

func TestFillCatalog(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	cat := catalog.New(ids...)
	if err := FillCatalog(cat, ids, Config{}); err != nil {
		t.Fatal(err)
	}
	if !cat.IsPartitionAttr("NationKey") {
		t.Error("NationKey not a partition attribute")
	}
	if !cat.IsPartitionAttr("CustKey") || !cat.IsPartitionAttr("CustName") {
		t.Error("FD-derived partition attributes missing")
	}
	if cat.IsPartitionAttr("PartKey") {
		t.Error("PartKey wrongly a partition attribute")
	}
}

func TestNationsFor(t *testing.T) {
	all := map[int64]bool{}
	for s := 0; s < 8; s++ {
		for _, n := range NationsFor(s, 8, 25) {
			if all[n] {
				t.Fatalf("nation %d assigned twice", n)
			}
			all[n] = true
		}
	}
	if len(all) != 25 {
		t.Errorf("assigned %d nations, want 25", len(all))
	}
}

func TestFillValueDomains(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	cat := catalog.New(ids...)
	cfg := Config{Customers: 100, LowCardGroups: 20, Nations: 20}
	if err := FillValueDomains(cat, ids, cfg); err != nil {
		t.Fatal(err)
	}
	// CustKey/CustName value sets are per-site disjoint → partition attrs
	// even without the FD route.
	for _, attr := range []string{"CustKey", "CustName", "CustGroup"} {
		if !cat.IsPartitionAttr(attr) {
			t.Errorf("%s not a partition attribute from value domains", attr)
		}
	}
	// Every customer lands at exactly one site, consistent with the
	// generator's placement.
	seen := map[string]bool{}
	total := 0
	for _, id := range ids {
		d := siteDomain(t, cat, id, "custname")
		for _, v := range d.Set {
			if seen[v.S] {
				t.Fatalf("customer %s at two sites", v.S)
			}
			seen[v.S] = true
			total++
		}
	}
	if total != 100 {
		t.Errorf("catalogued %d customers, want 100", total)
	}
	// The domains agree with generated data: each site's rows only use
	// its catalogued CustGroup values.
	for i, id := range ids {
		part, err := GeneratePartition(Config{Rows: 1000, Customers: 100, LowCardGroups: 20, Nations: 20, Seed: 4}, i, len(ids))
		if err != nil {
			t.Fatal(err)
		}
		allowed := map[string]bool{}
		for _, v := range siteDomain(t, cat, id, "custgroup").Set {
			allowed[v.Key()] = true
		}
		gi, _ := Schema().MustLookup("CustGroup")
		for _, row := range part.Rows {
			if !allowed[row[gi].Key()] {
				t.Fatalf("site %s has CustGroup %v outside its catalogued domain", id, row[gi])
			}
		}
	}
	// Unknown site id errors.
	if err := FillValueDomains(catalog.New("other"), []string{"nope"}, cfg); err == nil {
		t.Error("unknown site accepted")
	}
}

// siteDomain returns the domain of attr at the named site of cat.
func siteDomain(t *testing.T, cat *catalog.Catalog, id, attr string) expr.Domain {
	t.Helper()
	s, err := cat.Site(id)
	if err != nil {
		t.Fatal(err)
	}
	return s.Domains[attr]
}
