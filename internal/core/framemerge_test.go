package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/value"
)

// statesOf is a site's states-only reply for specs placed by pl: a slab
// folds val(g, i) for i < 3 into every group g of x, and row j carries the
// primitive states of the group pl places it in.
func statesOf(t *testing.T, specs []agg.Spec, groups int, pl placement, val func(g, i int) value.V) *relation.Relation {
	t.Helper()
	slab := agg.NewSlab(specs, groups)
	for g := 0; g < groups; g++ {
		for i := 0; i < 3; i++ {
			for p := 0; p < slab.Width(); p++ {
				if err := slab.Add(g, p, val(g, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var cols []relation.Column
	for _, sp := range specs {
		cols = append(cols, sp.SubColumns()...)
	}
	rel := relation.New(relation.MustSchema(cols...))
	for _, g := range pl.groups(nil) {
		row := make(relation.Row, slab.Width())
		for p := range row {
			row[p] = slab.Result(g, p)
		}
		rel.Rows = append(rel.Rows, row)
	}
	return rel
}

// mergedFrames merges each reply, placed by its placement, into the groups
// of x twice — from its boxed rows, and from its frame — and returns the
// frames of both results: the finalized X, or for a relay tier the
// fragment it sends up followed by its Kept bitmap.
func mergedFrames(t *testing.T, x *relation.Relation, specs []agg.Spec, replies []*relation.Relation, pls []placement, tier bool) (rows, frames []byte) {
	t.Helper()
	var out [2][]byte
	for pass := range out {
		m, err := newKeyedMerge(x.Schema, x.Rows, nil, specs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tier {
			m.kept = make([]byte, (x.Len()+7)/8)
		}
		for s, rel := range replies {
			var h fragment = rel
			if pass == 1 {
				if h, err = relation.DecodeFrame(relation.AppendFrame(nil, rel)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.merge(rel.Schema, h, pls[s]); err != nil {
				t.Fatalf("site %d: %v", s, err)
			}
		}
		if tier {
			rel, kept, err := m.tier()
			if err != nil {
				t.Fatal(err)
			}
			out[pass] = append(relation.AppendFrame(nil, rel), kept...)
			continue
		}
		x, err := m.finalized()
		if err != nil {
			t.Fatal(err)
		}
		out[pass] = relation.AppendFrame(nil, x)
	}
	return out[0], out[1]
}

// kindsOf reports the kinds column c of rel holds.
func kindsOf(rel *relation.Relation, c int) map[value.Kind]bool {
	kinds := map[value.Kind]bool{}
	for _, row := range rel.Rows {
		kinds[row[c].K] = true
	}
	return kinds
}

// TestMergeFromFrameMatchesRows: merging states-only replies from their
// frames gives, byte for byte, the X (and the relay fragment) that merging
// their boxed rows gives, over every lane shape a reply's states take and
// every placement of its rows.
func TestMergeFromFrameMatchesRows(t *testing.T) {
	const groups, sites = 21, 3
	x := relation.New(relation.MustSchema(relation.Column{Name: "g", Kind: value.KindString}))
	for g := 0; g < groups; g++ {
		x.MustAppend(value.NewString(fmt.Sprintf("g%02d", g)))
	}
	all := func(int) placement { return placement{shipped: groups} }
	// Site s drops the groups it found nothing for (Proposition 1).
	kept := func(s int) placement {
		pl := placement{shipped: groups, kept: make([]byte, (groups+7)/8)}
		for g := 0; g < groups; g++ {
			if (g+s)%4 != 0 {
				pl.kept[g/8] |= 1 << (g % 8)
			}
		}
		return pl
	}
	// Site s was shipped the groups a Theorem-4 filter kept for it, and
	// drops some of those.
	filtered := func(s int) placement {
		pl := placement{}
		for g := 0; g < groups; g++ {
			if g%3 != s {
				pl.idx = append(pl.idx, g)
			}
		}
		pl.shipped = len(pl.idx)
		pl.kept = make([]byte, (pl.shipped+7)/8)
		for k := range pl.idx {
			if k%5 != 2 {
				pl.kept[k/8] |= 1 << (k % 8)
			}
		}
		return pl
	}
	ints := func(s int) func(g, i int) value.V {
		return func(g, i int) value.V { return value.NewInt(int64(s*7 + g*3 + i)) }
	}
	cases := []struct {
		name  string
		specs []string
		val   func(s int) func(g, i int) value.V
		place func(s int) placement
		// shape checks that column c of site 1's reply has the lane
		// shape the case is about.
		c     int
		shape func(kinds map[value.Kind]bool) bool
	}{
		{"NULL sum states", []string{"sum(F.v) AS s", "avg(F.v) AS a", "count(F.v) AS n"},
			func(s int) func(g, i int) value.V {
				return func(g, i int) value.V {
					if s == 0 || g%3 == 0 {
						return value.Null
					}
					return ints(s)(g, i)
				}
			}, all, 0, func(k map[value.Kind]bool) bool { return k[value.KindNull] && k[value.KindInt] }},
		{"INT sums under FLOAT columns", []string{"sum(F.v) AS s", "avg(F.v) AS a", "var(F.v) AS v"},
			ints, all, 0, func(k map[value.Kind]bool) bool { return len(k) == 1 && k[value.KindInt] }},
		{"mixed INT, FLOAT and NULL sums", []string{"sum(F.v) AS s", "avg(F.v) AS a"},
			func(s int) func(g, i int) value.V {
				return func(g, i int) value.V {
					switch g % 3 {
					case 0:
						return value.Null
					case 1:
						return value.NewFloat(float64(s+g+i) + 0.25)
					}
					return value.NewInt(int64(s + g*i))
				}
			}, all, 0, func(k map[value.Kind]bool) bool { return len(k) == 3 }},
		{"min and max over strings", []string{"min(F.v) AS lo", "max(F.v) AS hi"},
			func(s int) func(g, i int) value.V {
				return func(g, i int) value.V {
					if g%5 == 0 && s == 1 {
						return value.Null
					}
					return value.NewString(fmt.Sprintf("Customer#%06d", (s*31+g*7+i*13)%100))
				}
			}, all, 1, func(k map[value.Kind]bool) bool { return k[value.KindString] && k[value.KindNull] }},
		{"countd and countdx states", []string{"countd(F.v) AS d", "countdx(F.v) AS dx"},
			func(s int) func(g, i int) value.V {
				return func(g, i int) value.V { return value.NewInt(int64((s + g*i) % 7)) }
			}, all, 0, func(k map[value.Kind]bool) bool { return len(k) == 1 && k[value.KindString] }},
		{"Kept with dropped rows", []string{"count(*) AS n", "avg(F.v) AS a", "max(F.v) AS hi"},
			ints, kept, 0, func(k map[value.Kind]bool) bool { return k[value.KindInt] }},
		{"Theorem-4 idx placement", []string{"count(*) AS n", "sum(F.v) AS s", "min(F.v) AS lo"},
			ints, filtered, 0, func(k map[value.Kind]bool) bool { return k[value.KindInt] }},
	}
	for _, c := range cases {
		specs := make([]agg.Spec, len(c.specs))
		for i, text := range c.specs {
			specs[i] = agg.MustParseSpec(text)
		}
		replies := make([]*relation.Relation, sites)
		pls := make([]placement, sites)
		for s := range replies {
			pls[s] = c.place(s)
			replies[s] = statesOf(t, specs, groups, pls[s], c.val(s))
		}
		if kinds := kindsOf(replies[1], c.c); !c.shape(kinds) {
			t.Errorf("%s: column %d of a reply holds %v, not the shape the case is about", c.name, c.c, kinds)
		}
		if rows, frames := mergedFrames(t, x, specs, replies, pls, false); !bytes.Equal(rows, frames) {
			t.Errorf("%s: X merged from frames\n% x\nfrom rows\n% x", c.name, frames, rows)
		}
		if rows, frames := mergedFrames(t, x, specs, replies, pls, true); !bytes.Equal(rows, frames) {
			t.Errorf("%s: relay fragment merged from frames\n% x\nfrom rows\n% x", c.name, frames, rows)
		}

		// A relay's tier() fragment, merged at the root beside a leaf's
		// reply.
		m, err := newKeyedMerge(x.Schema, x.Rows, nil, specs, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.kept = make([]byte, (groups+7)/8)
		for s := 1; s < sites; s++ {
			if err := m.merge(replies[s].Schema, replies[s], pls[s]); err != nil {
				t.Fatal(err)
			}
		}
		frag, fragKept, err := m.tier()
		if err != nil {
			t.Fatal(err)
		}
		tierPls := []placement{pls[0], {shipped: groups, kept: fragKept}}
		if rows, frames := mergedFrames(t, x, specs, []*relation.Relation{replies[0], frag}, tierPls, false); !bytes.Equal(rows, frames) {
			t.Errorf("%s: X merged from a relay's frame\n% x\nfrom its rows\n% x", c.name, frames, rows)
		}
	}
}
