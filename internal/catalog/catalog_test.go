package catalog

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

func vi(vals ...int64) []value.V {
	out := make([]value.V, len(vals))
	for i, v := range vals {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestSiteLookupAndDomains(t *testing.T) {
	c := New("s1", "s2")
	if _, err := c.Site("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Site("nope"); err == nil {
		t.Error("unknown site accepted")
	}
	if err := c.SetDomain("s1", "NationKey", expr.DomainSet(vi(0, 1)...)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDomain("nope", "x", expr.Domain{}); err == nil {
		t.Error("SetDomain on unknown site accepted")
	}
	if d := siteDomains(t, c, "s1"); len(d) != 1 {
		t.Errorf("s1 domains = %v", d)
	}
}

// siteDomains returns the domain map of the named site of c.
func siteDomains(t *testing.T, c *Catalog, id string) map[string]expr.Domain {
	t.Helper()
	s, err := c.Site(id)
	if err != nil {
		t.Fatal(err)
	}
	return s.Domains
}

func TestPartitionAttrSets(t *testing.T) {
	c := New("s1", "s2", "s3")
	c.SetDomain("s1", "nk", expr.DomainSet(vi(0, 1, 2)...))
	c.SetDomain("s2", "nk", expr.DomainSet(vi(3, 4)...))
	c.SetDomain("s3", "nk", expr.DomainSet(vi(5)...))
	if !c.IsPartitionAttr("NK") {
		t.Error("disjoint sets not detected as partition attribute")
	}
	// Overlap breaks it.
	c.SetDomain("s3", "nk", expr.DomainSet(vi(4, 5)...))
	if c.IsPartitionAttr("nk") {
		t.Error("overlapping sets detected as partition attribute")
	}
}

func TestPartitionAttrRanges(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "a", expr.DomainRange(value.NewInt(1), value.NewInt(25)))
	c.SetDomain("s2", "a", expr.DomainRange(value.NewInt(26), value.NewInt(50)))
	if !c.IsPartitionAttr("a") {
		t.Error("disjoint ranges not detected")
	}
	c.SetDomain("s2", "a", expr.DomainRange(value.NewInt(25), value.NewInt(50)))
	if c.IsPartitionAttr("a") {
		t.Error("touching ranges (sharing 25) detected as disjoint")
	}
}

func TestPartitionAttrSetVsRange(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "a", expr.DomainSet(vi(1, 2)...))
	c.SetDomain("s2", "a", expr.DomainRange(value.NewInt(10), value.NewInt(20)))
	if !c.IsPartitionAttr("a") {
		t.Error("set below range not disjoint")
	}
	c.SetDomain("s1", "a", expr.DomainSet(vi(1, 15)...))
	if c.IsPartitionAttr("a") {
		t.Error("set element inside range not caught")
	}
}

func TestPartitionAttrMissingSite(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "a", expr.DomainSet(vi(1)...))
	// s2 has no domain for a: cannot conclude.
	if c.IsPartitionAttr("a") {
		t.Error("partition attr concluded with missing domain")
	}
	if New().IsPartitionAttr("a") {
		t.Error("empty catalog has partition attrs")
	}
}

func TestFDDerivedPartitionAttr(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "nationkey", expr.DomainSet(vi(0, 1)...))
	c.SetDomain("s2", "nationkey", expr.DomainSet(vi(2, 3)...))
	c.AddFD("CustKey", "NationKey")
	c.AddFD("CustName", "CustKey")
	if !c.IsPartitionAttr("custkey") {
		t.Error("FD-derived partition attribute not detected")
	}
	if !c.IsPartitionAttr("CustName") {
		t.Error("transitive FD-derived partition attribute not detected")
	}
	if c.IsPartitionAttr("other") {
		t.Error("unrelated attribute detected")
	}
}

// TestPartitionProofMemo: a proof is made once per catalog version.
// SetDomain and AddFD start a new version, so does Invalidate after a
// direct write; a direct write alone is not seen.
func TestPartitionProofMemo(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "nk", expr.DomainSet(vi(0, 1)...))
	c.SetDomain("s2", "nk", expr.DomainSet(vi(2, 3)...))
	if !c.IsPartitionAttr("nk") || c.IsPartitionAttr("ck") {
		t.Fatal("first proofs wrong")
	}
	c.AddFD("ck", "nk")
	if !c.IsPartitionAttr("CK") {
		t.Error("AddFD after a proof did not invalidate it")
	}
	c.SetDomain("s2", "nk", expr.DomainSet(vi(1, 2)...))
	if c.IsPartitionAttr("nk") || c.IsPartitionAttr("ck") {
		t.Error("SetDomain after a proof did not invalidate it")
	}
	c.Sites[1].Domains["nk"] = expr.DomainSet(vi(2)...)
	if c.IsPartitionAttr("nk") {
		t.Error("a direct write was seen without Invalidate: the proof is not memoized")
	}
	c.Invalidate()
	if !c.IsPartitionAttr("nk") || !c.IsPartitionAttr("ck") {
		t.Error("Invalidate did not start a new version")
	}
}

func TestFDCycleGuard(t *testing.T) {
	c := New("s1")
	c.AddFD("a", "b")
	c.AddFD("b", "a")
	if c.IsPartitionAttr("a") {
		t.Error("FD cycle concluded partition attr")
	}
}

func TestPartitionAttrsEnumeration(t *testing.T) {
	c := New("s1", "s2")
	c.SetDomain("s1", "nk", expr.DomainSet(vi(0)...))
	c.SetDomain("s2", "nk", expr.DomainSet(vi(1)...))
	c.SetDomain("s1", "other", expr.DomainSet(vi(0)...))
	// "other" has no domain at s2 → not a partition attr.
	c.AddFD("ck", "nk")
	for a, want := range map[string]bool{"nk": true, "ck": true, "other": false} {
		if got := c.IsPartitionAttr(a); got != want {
			t.Errorf("IsPartitionAttr(%q) = %v, want %v", a, got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := New("s0", "s1")
	c.SetDomain("s0", "nationkey", expr.DomainSet(vi(0, 2, 4)...))
	c.SetDomain("s1", "nationkey", expr.DomainSet(vi(1, 3)...))
	c.SetDomain("s0", "shipdate", expr.DomainRange(value.NewInt(0), value.NewInt(100)))
	c.SetDomain("s1", "name", expr.DomainSet(value.NewString("a"), value.NewString("b")))
	c.SetDomain("s0", "frac", expr.DomainRange(value.NewFloat(0.25), value.NewFloat(0.75)))
	c.AddFD("custkey", "nationkey")

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sites) != 2 || len(back.FDs) != 1 {
		t.Fatalf("restored: %+v", back)
	}
	if !back.IsPartitionAttr("nationkey") || !back.IsPartitionAttr("custkey") {
		t.Error("partition knowledge lost")
	}
	d := siteDomains(t, back, "s0")["shipdate"]
	if !d.HasMin || !d.HasMax || d.Min.Int() != 0 || d.Max.Int() != 100 {
		t.Errorf("range domain lost: %+v", d)
	}
	if f := siteDomains(t, back, "s0")["frac"]; !f.HasMin || f.Min.Float() != 0.25 {
		t.Errorf("float domain lost: %+v", f)
	}
	if names := siteDomains(t, back, "s1")["name"]; len(names.Set) != 2 || names.Set[0].S != "a" {
		t.Errorf("string set lost: %+v", names)
	}
}

func TestJSONHandAuthored(t *testing.T) {
	src := `{
	  "sites": [
	    {"id": "site0", "domains": {"nationkey": {"set": [0, 8, 16]}}},
	    {"id": "site1", "domains": {"nationkey": {"set": [1, 9, 17]}}}
	  ],
	  "fds": [{"from": "custkey", "to": "nationkey"}]
	}`
	c, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsPartitionAttr("NationKey") {
		t.Error("hand-authored partition sets not recognized")
	}
	// Bad inputs.
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"sites":[{"id":""}]}`)); err == nil {
		t.Error("empty site id accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"sites":[{"id":"x","domains":{"a":{"set":[true]}}}]}`)); err == nil {
		t.Error("bool domain value accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/catalog.json"
	c := New("s0")
	c.SetDomain("s0", "a", expr.DomainSet(vi(1)...))
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sites) != 1 || back.Sites[0].ID != "s0" {
		t.Errorf("loaded: %+v", back)
	}
	if _, err := LoadFile(dir + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// keyStringPartitionAttr is IsPartitionAttr as it was before the one-pass
// set check, which compared every pair of set domains through a map of
// Key() strings. TestPartitionAttrMatchesKeyStrings holds the catalog to
// it. Pairs with a range go to disjoint, whose range cases are unchanged.
func keyStringPartitionAttr(c *Catalog, attr string, visiting map[string]bool) bool {
	if visiting[attr] {
		return false
	}
	visiting[attr] = true
	if keyStringDirect(c, attr) {
		return true
	}
	for _, fd := range c.FDs {
		if fd.From == attr && keyStringPartitionAttr(c, fd.To, visiting) {
			return true
		}
	}
	return false
}

func keyStringDirect(c *Catalog, attr string) bool {
	if len(c.Sites) == 0 {
		return false
	}
	domains := make([]expr.Domain, len(c.Sites))
	for i, s := range c.Sites {
		d, ok := s.Domains[attr]
		if !ok {
			return false
		}
		domains[i] = d
	}
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			a, b := domains[i], domains[j]
			if a.Set == nil || b.Set == nil {
				if !disjoint(a, b) {
					return false
				}
				continue
			}
			keys := make(map[string]struct{}, len(a.Set))
			for _, v := range a.Set {
				keys[v.Key()] = struct{}{}
			}
			for _, v := range b.Set {
				if _, hit := keys[v.Key()]; hit {
					return false
				}
			}
		}
	}
	return true
}

// TestPartitionAttrMatchesKeyStrings compares IsPartitionAttr's verdicts
// with the Key()-string reference over random catalogs: set domains drawn
// from NULL, NaN, 0 and -0, 1 and 1.0, true, a non-integral float and
// strings (one of them "1"), range domains, missing domains and FD chains.
func TestPartitionAttrMatchesKeyStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pool := []value.V{
		value.Null, value.NewFloat(math.NaN()), value.NewInt(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewInt(1), value.NewFloat(1), value.NewBool(true), value.NewFloat(2.5),
		value.NewInt(3), value.NewString("1"), value.NewString("a"), value.NewString("b"),
	}
	attrs := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 3000; trial++ {
		c := New([]string{"s0", "s1", "s2", "s3"}[:1+rng.Intn(4)]...)
		for _, s := range c.Sites {
			for _, a := range attrs {
				switch r := rng.Intn(10); {
				case r == 0:
					// unconstrained here
				case r < 3:
					lo := int64(rng.Intn(6))
					s.Domains[a] = expr.DomainRange(value.NewInt(lo), value.NewInt(lo+int64(rng.Intn(3))))
				default:
					var set []value.V
					for _, k := range rng.Perm(len(pool))[:rng.Intn(4)] {
						set = append(set, pool[k])
					}
					s.Domains[a] = expr.DomainSet(set...)
				}
			}
		}
		for i := rng.Intn(4); i > 0; i-- {
			c.AddFD(attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))])
		}
		for _, a := range attrs {
			if got, want := c.IsPartitionAttr(a), keyStringPartitionAttr(c, a, map[string]bool{}); got != want {
				t.Fatalf("trial %d: IsPartitionAttr(%s) = %v, Key()-string reference %v\ncatalog: %+v", trial, a, got, want, c)
			}
		}
	}
}
