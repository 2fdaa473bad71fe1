// Package catalog holds the distribution knowledge of a Skalla warehouse:
// which sites exist, what is known about each site's partition of the
// detail relation (the predicates φ_i of Theorem 4, represented as
// per-attribute domains), and functional dependencies between attributes.
//
// The optimizer consults the catalog for distribution-aware group
// reduction (Theorem 4) and for partition-attribute detection
// (Definition 2), which enables synchronization reduction (Corollary 1).
// An empty catalog is valid: all distribution-aware optimizations simply
// stay off, as the paper's distribution-independent strategies require no
// such knowledge.
package catalog

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// SiteInfo describes one site and what is known about its partition.
type SiteInfo struct {
	// ID is the site's unique name.
	ID string
	// Domains maps detail attribute names (case-insensitive) to the set
	// of values that attribute can take at this site. Attributes without
	// an entry are unconstrained.
	Domains map[string]expr.Domain
}

// FD is a functional dependency From → To between detail attributes: each
// From value determines a unique To value. If To is a partition attribute,
// From is one too (the paper's footnote on derived partition attributes,
// e.g. CustKey → NationKey in the TPC-R partitioning).
type FD struct {
	From string
	To   string
}

// Catalog is the distribution knowledge for one distributed warehouse.
//
// A catalog proves each partition attribute once per version: the verdicts
// of IsPartitionAttr are memoized until SetDomain or AddFD changes what
// they read. A caller that writes Sites or FDs directly must call
// Invalidate afterwards.
type Catalog struct {
	Sites []SiteInfo
	FDs   []FD

	mu sync.Mutex
	// proofs memoizes IsPartitionAttr by the attribute as asked; nil is
	// empty.
	//lint:guarded-by mu
	proofs map[string]bool
}

// New returns a catalog over the named sites with no distribution
// knowledge.
func New(siteIDs ...string) *Catalog {
	c := &Catalog{}
	for _, id := range siteIDs {
		c.Sites = append(c.Sites, SiteInfo{ID: id, Domains: map[string]expr.Domain{}})
	}
	return c
}

// Site returns the info for the named site.
func (c *Catalog) Site(id string) (*SiteInfo, error) {
	for i := range c.Sites {
		if c.Sites[i].ID == id {
			return &c.Sites[i], nil
		}
	}
	return nil, fmt.Errorf("catalog: unknown site %q", id)
}

// SetDomain records the domain of attr at the named site.
func (c *Catalog) SetDomain(siteID, attr string, d expr.Domain) error {
	s, err := c.Site(siteID)
	if err != nil {
		return err
	}
	if s.Domains == nil {
		s.Domains = map[string]expr.Domain{}
	}
	s.Domains[strings.ToLower(attr)] = d
	c.Invalidate()
	return nil
}

// AddFD records a functional dependency From → To. Re-adding an existing
// dependency is a no-op.
func (c *Catalog) AddFD(from, to string) {
	fd := FD{From: strings.ToLower(from), To: strings.ToLower(to)}
	for _, have := range c.FDs {
		if have == fd {
			return
		}
	}
	c.FDs = append(c.FDs, fd)
	c.Invalidate()
}

// Invalidate drops every memoized proof, starting a new catalog version.
func (c *Catalog) Invalidate() {
	c.mu.Lock()
	c.proofs = nil
	c.mu.Unlock()
}

// IsPartitionAttr reports whether attr satisfies Definition 2: the
// projections of the sites' partitions onto attr are pairwise disjoint.
// This holds when every site declares a domain for attr and those domains
// are pairwise disjoint, or when attr functionally determines (possibly
// transitively) an attribute for which that holds. The verdict is proved
// once per catalog version; concurrent planners may ask.
func (c *Catalog) IsPartitionAttr(attr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok, proved := c.proofs[attr]
	if !proved {
		ok = c.isPartitionAttr(strings.ToLower(attr), map[string]bool{})
		if c.proofs == nil {
			c.proofs = map[string]bool{}
		}
		c.proofs[attr] = ok
	}
	return ok
}

func (c *Catalog) isPartitionAttr(attr string, visiting map[string]bool) bool {
	if visiting[attr] {
		return false // FD cycle guard
	}
	visiting[attr] = true
	if c.directPartitionAttr(attr) {
		return true
	}
	for _, fd := range c.FDs {
		if fd.From == attr && c.isPartitionAttr(fd.To, visiting) {
			return true
		}
	}
	return false
}

// directPartitionAttr checks pairwise domain disjointness for attr.
func (c *Catalog) directPartitionAttr(attr string) bool {
	if len(c.Sites) == 0 {
		return false
	}
	domains, n := make([]expr.Domain, len(c.Sites)), 0
	for i, s := range c.Sites {
		d, ok := s.Domains[attr]
		if !ok {
			return false // unconstrained at some site: cannot conclude
		}
		domains[i], n = d, n+len(d.Set)
	}
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			if (domains[i].Set == nil || domains[j].Set == nil) && !disjoint(domains[i], domains[j]) {
				return false
			}
		}
	}
	return setsDisjoint(domains, n)
}

// setsDisjoint reports whether no value lies in the sets of two of the
// domains, which hold n set values between them, in one pass: a value is
// indexed by hash with the first domain holding it (relation.SameKey, the
// Key() equivalence, decides), so one found under another domain is
// shared. Range domains hold no set and are skipped.
func setsDisjoint(domains []expr.Domain, n int) bool {
	var index relation.KeyIndex
	index.Reserve(n)
	at := make([][2]int32, 0, n) // position → (domain, set index)
	for d, dom := range domains {
		for i, v := range dom.Set {
			h := v.Hash()
			pos, ok := index.Find(h, func(pos int) bool {
				return relation.SameKey(domains[at[pos][0]].Set[at[pos][1]], v)
			})
			if ok && int(at[pos][0]) != d {
				return false
			}
			if !ok && d < len(domains)-1 { // nothing probes the last domain's values
				index.Add(h, len(at))
				at = append(at, [2]int32{int32(d), int32(i)})
			}
		}
	}
	return true
}

// disjoint conservatively decides whether two domains, at least one of
// them a range, share no value; false means "might overlap".
func disjoint(a, b expr.Domain) bool {
	if a.Set != nil {
		return setDisjointFromRange(a, b)
	}
	if b.Set != nil {
		return setDisjointFromRange(b, a)
	}
	// Two ranges: disjoint iff one ends before the other starts.
	if a.HasMax && b.HasMin && value.Less(a.Max, b.Min) {
		return true
	}
	if b.HasMax && a.HasMin && value.Less(b.Max, a.Min) {
		return true
	}
	return false
}

// setDisjointFromRange reports whether no element of set s falls inside
// range r.
func setDisjointFromRange(s, r expr.Domain) bool {
	for _, v := range s.Set {
		below := r.HasMin && value.Less(v, r.Min)
		above := r.HasMax && value.Less(r.Max, v)
		if !below && !above {
			return false
		}
	}
	return true
}
