package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/value"
)

// subColumns are the primitive-state columns of specs, in slab order.
func subColumns(specs []agg.Spec) []relation.Column {
	var cols []relation.Column
	for _, sp := range specs {
		cols = append(cols, sp.SubColumns()...)
	}
	return cols
}

// addAll folds val(i) for i < 3 into every primitive of group g of slab.
func addAll(t *testing.T, slab *agg.Slab, g int, val func(i int) value.V) {
	t.Helper()
	for i := 0; i < 3; i++ {
		for p := 0; p < slab.Width(); p++ {
			if err := slab.Add(g, p, val(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// states returns the primitive states of group g of slab.
func states(slab *agg.Slab, g int) relation.Row {
	row := make(relation.Row, slab.Width())
	for p := range row {
		row[p] = slab.Result(g, p)
	}
	return row
}

// statesOf is a site's states-only reply for specs placed by pl: a slab
// folds val(g, i) for i < 3 into every group g pl places, and row j carries
// the primitive states of the group pl places it in.
func statesOf(t *testing.T, specs []agg.Spec, groups int, pl placement, val func(g, i int) value.V) *relation.Relation {
	t.Helper()
	slab := agg.NewSlab(specs, groups)
	rel := relation.New(relation.MustSchema(subColumns(specs)...))
	for _, g := range pl.groups(nil) {
		addAll(t, slab, g, func(i int) value.V { return val(g, i) })
		rel.Rows = append(rel.Rows, states(slab, g))
	}
	return rel
}

// emitted is the frame of what merge m emits: the finalized X, or for a
// relay tier the fragment it sends up followed by its Kept bitmap.
func emitted(t *testing.T, m *keyedMerge, tier bool) []byte {
	t.Helper()
	if tier {
		rel, kept, err := m.tier()
		if err != nil {
			t.Fatal(err)
		}
		return append(relation.AppendFrame(nil, rel), kept...)
	}
	x, err := m.finalized()
	if err != nil {
		t.Fatal(err)
	}
	return relation.AppendFrame(nil, x)
}

// mergedFrames merges the frame of each states-only reply, placed by its
// placement, into the groups of x and returns the frame of what the merge
// emits (emitted).
func mergedFrames(t *testing.T, x *relation.Relation, specs []agg.Spec, replies []*relation.Relation, pls []placement, tier bool) []byte {
	t.Helper()
	m, err := newKeyedMerge(x.Schema, x.Rows, nil, specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tier {
		m.kept = make([]byte, (x.Len()+7)/8)
	}
	for s, rel := range replies {
		h, err := relation.DecodeFrame(relation.AppendFrame(nil, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.merge(h, pls[s]); err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
	}
	return emitted(t, m, tier)
}

// directX is the frame of the X that the groups of x get when every value
// of every reply is added into one slab: x's rows, each followed by the
// finals of its group in slab.
func directX(t *testing.T, x *relation.Relation, specs []agg.Spec, slab *agg.Slab) []byte {
	t.Helper()
	var cols []relation.Column
	for _, sp := range specs {
		cols = append(cols, sp.OutColumn())
	}
	schema, err := x.Schema.Concat(cols...)
	if err != nil {
		t.Fatal(err)
	}
	out := relation.New(schema)
	for g, row := range x.Rows {
		nr := append(relation.Row(nil), row...)
		for si := range specs {
			v, err := slab.Finalize(g, si)
			if err != nil {
				t.Fatal(err)
			}
			nr = append(nr, v)
		}
		out.Rows = append(out.Rows, nr)
	}
	return relation.AppendFrame(nil, out)
}

// directTier is, as directX, the relay fragment and Kept bitmap the groups
// of x get (emitted): the groups some reply answered, in group order, each
// its row of x if echo, then its states in slab.
func directTier(x *relation.Relation, echo bool, specs []agg.Spec, slab *agg.Slab, answered []bool) []byte {
	var cols []relation.Column
	if echo {
		cols = append(cols, x.Schema.Cols...)
	}
	out := relation.New(relation.MustSchema(append(cols, subColumns(specs)...)...))
	kept := make([]byte, (len(answered)+7)/8)
	for g, ok := range answered {
		if !ok {
			continue
		}
		kept[g/8] |= 1 << (g % 8)
		var nr relation.Row
		if echo {
			nr = append(nr, x.Rows[g]...)
		}
		out.Rows = append(out.Rows, append(nr, states(slab, g)...))
	}
	if out.Len() == len(answered) {
		kept = nil
	}
	return append(relation.AppendFrame(nil, out), kept...)
}

// kindsOf reports the kinds column c of rel holds.
func kindsOf(rel *relation.Relation, c int) map[value.Kind]bool {
	kinds := map[value.Kind]bool{}
	for _, row := range rel.Rows {
		kinds[row[c].K] = true
	}
	return kinds
}

// TestMergeFromFrameMatchesRows: merging replies from their frames gives,
// byte for byte, the X (and the relay fragment) that the same values give
// when added into one slab directly: states-only replies over every lane
// shape their states take and every placement of their rows, and keyed
// replies merged by key and folded.
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
		// direct adds every value sites from on answer into one slab, and
		// marks the groups they answered.
		direct := func(from int) (*agg.Slab, []bool) {
			slab, answered := agg.NewSlab(specs, groups), make([]bool, groups)
			for s := from; s < sites; s++ {
				for _, g := range pls[s].groups(nil) {
					addAll(t, slab, g, func(i int) value.V { return c.val(s)(g, i) })
					answered[g] = true
				}
			}
			return slab, answered
		}
		ref, answered := direct(0)
		if got, want := mergedFrames(t, x, specs, replies, pls, false), directX(t, x, specs, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: X merged from frames\n% x\nadded into one slab\n% x", c.name, got, want)
		}
		if got, want := mergedFrames(t, x, specs, replies, pls, true), directTier(x, false, specs, ref, answered); !bytes.Equal(got, want) {
			t.Errorf("%s: relay fragment merged from frames\n% x\nadded into one slab\n% x", c.name, got, want)
		}

		// A relay's tier() fragment of sites 1 on, merged at the root
		// beside site 0's reply.
		m, err := newKeyedMerge(x.Schema, x.Rows, nil, specs, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.kept = make([]byte, (groups+7)/8)
		for s := 1; s < sites; s++ {
			h, err := relation.DecodeFrame(relation.AppendFrame(nil, replies[s]))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.merge(h, pls[s]); err != nil {
				t.Fatal(err)
			}
		}
		frag, fragKept, err := m.tier()
		if err != nil {
			t.Fatal(err)
		}
		sub, subAnswered := direct(1)
		if got, want := append(relation.AppendFrame(nil, frag), fragKept...), directTier(x, false, specs, sub, subAnswered); !bytes.Equal(got, want) {
			t.Errorf("%s: relay fragment of sites 1 on\n% x\nadded into one slab\n% x", c.name, got, want)
		}
		tierPls := []placement{pls[0], {shipped: groups, kept: fragKept}}
		if got, want := mergedFrames(t, x, specs, []*relation.Relation{replies[0], frag}, tierPls, false), directX(t, x, specs, ref); !bytes.Equal(got, want) {
			t.Errorf("%s: X merged from a relay's frame\n% x\nadded into one slab\n% x", c.name, got, want)
		}
	}

	// Keyed replies bring their groups, keyed on K = (k, name): k is NULL,
	// NaN, −0 or +0 (one key, the first one a merge sees kept) or another
	// float, beside string names. Site 1 sends its states first and K in
	// reverse, which a merge that picks K by name does not mind. Merged by
	// key, the sites share groups, each bringing a different subset; folded,
	// the names are site-disjoint and every row is a group of its own. The
	// replies arrive as a site client delivers them, and both the X and the
	// relay fragment are merged from the same ones.
	specs := []agg.Spec{agg.MustParseSpec("count(*) AS n"), agg.MustParseSpec("sum(F.v) AS s"), agg.MustParseSpec("max(F.v) AS hi")}
	keySchema := relation.MustSchema(relation.Column{Name: "k", Kind: value.KindFloat}, relation.Column{Name: "name", Kind: value.KindString})
	key := func(s, g int, fold bool) relation.Row {
		k := value.Null
		switch g % 4 {
		case 1:
			k = value.NewFloat(math.NaN())
		case 2:
			k = value.NewFloat(math.Copysign(0, float64(s%2*2-1))) // −0 at even sites
		case 3:
			k = value.NewFloat(float64(g) + 0.5)
		}
		name := fmt.Sprintf("g%02d", g)
		if fold {
			name = fmt.Sprintf("site%d/%s", s, name)
		}
		return relation.Row{k, value.NewString(name)}
	}
	for _, fold := range []bool{false, true} {
		step := &Step{FuseBase: true, Request: transport.Request{Op: transport.OpEvalRounds, BaseCols: []string{"K", "Name"}}, Specs: specs}
		step.room = len(specs)
		if fold {
			step.partition = []string{"name"}
		}
		want := relation.New(keySchema) // the groups, in first-seen order
		ref := agg.NewSlab(specs, 0)
		index := map[string]int{}
		replies := make([]*transport.Response, sites)
		for s := range replies {
			rel := relation.New(relation.MustSchema(append(subColumns(specs), keySchema.Cols[1], keySchema.Cols[0])...))
			if s != 1 {
				rel = relation.New(relation.MustSchema(append(append([]relation.Column(nil), keySchema.Cols...), subColumns(specs)...)...))
			}
			slab := agg.NewSlab(specs, 0)
			for g := 0; g < groups; g++ {
				if !fold && (g+s)%3 == 0 {
					continue
				}
				val := func(i int) value.V {
					if (g+i)%5 == 0 {
						return value.Null
					}
					return value.NewInt(int64(s*7 + g*3 + i))
				}
				kr := key(s, g, fold)
				sg := slab.AddGroup()
				addAll(t, slab, sg, val)
				if s == 1 {
					rel.Rows = append(rel.Rows, append(states(slab, sg), kr[1], kr[0]))
				} else {
					rel.Rows = append(rel.Rows, append(append(relation.Row(nil), kr...), states(slab, sg)...))
				}
				rk := relation.RowKey(kr, []int{0, 1})
				rg, ok := index[rk]
				if !ok || fold {
					rg = ref.AddGroup()
					index[rk] = rg
					want.Rows = append(want.Rows, kr)
				}
				addAll(t, ref, rg, val)
			}
			replies[s] = &transport.Response{Rel: rel}
		}
		replies = received(t, nil, replies)
		all := make([]bool, want.Len())
		for g := range all {
			all[g] = true
		}
		wants := [][]byte{directX(t, want, specs, ref), directTier(want, true, specs, ref, all)}
		for i, what := range []string{"X", "relay fragment"} {
			c := &Coordinator{clients: make([]transport.Client, sites)}
			m, _, err := c.synchronize(nil, streamOf(replies), step, nil, &RoundStats{}, i == 1)
			if err != nil {
				t.Fatalf("fold %v: %v", fold, err)
			}
			if got := emitted(t, m, i == 1); !bytes.Equal(got, wants[i]) {
				t.Errorf("fold %v: keyed %s merged from frames\n% x\nadded into one slab\n% x", fold, what, got, wants[i])
			}
		}
	}
}
