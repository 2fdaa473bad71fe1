package catalog

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// goldenCatalog is the catalog testdata/catalog_v1.json was written from.
// Its integers stay within ±2^53: the file writes bare JSON numbers, which
// ReadJSON parses as float64, so larger ones come back as FLOAT.
func goldenCatalog() *Catalog {
	c := New("s0", "s1")
	c.SetDomain("s0", "nationkey", expr.DomainSet(vi(0, 1<<53, -3)...))
	c.SetDomain("s1", "nationkey", expr.DomainSet(vi(1, -(1<<53))...))
	c.SetDomain("s0", "frac", expr.DomainRange(value.NewFloat(-2.5e-300), value.NewFloat(1e300)))
	c.SetDomain("s1", "frac", expr.DomainSet(value.NewFloat(0.125), value.NewFloat(-1.5)))
	c.SetDomain("s1", "name", expr.DomainSet(value.NewString("a"), value.NewString("ünï \"q\"")))
	c.SetDomain("s0", "shipdate", expr.DomainRange(value.NewInt(0), value.NewInt(2520)))
	c.AddFD("custkey", "nationkey")
	return c
}

// TestCatalogFileGolden: testdata/catalog_v1.json was written by the last
// commit whose value.V carried separate int and float fields. Today's
// build reads it to the same domains, floats compared by bits, and writes
// it back byte for byte.
func TestCatalogFileGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/catalog_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenCatalog()
	same := func(g, w value.V) bool {
		gi, _ := g.AsInt()
		wi, _ := w.AsInt()
		gf, _ := g.AsFloat()
		wf, _ := w.AsFloat()
		return g.K == w.K && gi == wi && math.Float64bits(gf) == math.Float64bits(wf) && g.S == w.S
	}
	for _, s := range want.Sites {
		gd := siteDomains(t, got, s.ID)
		if len(gd) != len(s.Domains) {
			t.Errorf("site %s: %d domains, want %d", s.ID, len(gd), len(s.Domains))
		}
		for attr, wd := range s.Domains {
			g := gd[attr]
			ok := len(g.Set) == len(wd.Set) && g.HasMin == wd.HasMin && g.HasMax == wd.HasMax &&
				same(g.Min, wd.Min) && same(g.Max, wd.Max)
			for i := 0; ok && i < len(g.Set); i++ {
				ok = same(g.Set[i], wd.Set[i])
			}
			if !ok {
				t.Errorf("site %s %s = %+v, want %+v", s.ID, attr, g, wd)
			}
		}
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), b) {
		t.Errorf("re-writing changed the bytes:\n%s\nwant\n%s", again.Bytes(), b)
	}
}
