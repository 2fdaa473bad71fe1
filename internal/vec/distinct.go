package vec

//lint:deterministic the distinct kernel must keep the row engine's first-seen order

import (
	"slices"

	"repro/internal/relation"
)

// Grouping is the one key structure of a batch per key-column set: the
// dense numbering of its lanes by key, with each group's lanes. Groups are
// numbered in first-seen scan order, and two lanes share a group exactly
// when relation.DistinctProject would fold their rows together — the same
// chained key hash and relation.KeysEqual on the key columns. The distinct
// kernel reads each lane's group, and the GMDJ equi probe resolves a base
// row's key to one group's run (Find) of a clustered view (View). The key
// structure is immutable once built, so concurrent kernels share it.
type Grouping struct {
	src   *Batch
	cols  []int // the key columns, as Batch.Grouping was asked for them
	keys  []*Col
	ids   []int32           // ids[lane] is the lane's group
	index relation.KeyIndex // chained key hash → group
	first []int32           // first[id] is group id's first lane
	// Group id's lanes, in scan order, are lanes[offs[id]:offs[id+1]]; view
	// lane i holds source lane lanes[i], so they are view lanes
	// offs[id]:offs[id+1], a run of the identity src and its views share.
	offs, lanes []int32
	perm        []*Col   // perm[ci] is column ci in view order; guarded by src.groupMu
	views       []*Batch // guarded by src.groupMu
}

// Len returns the number of groups.
func (g *Grouping) Len() int { return len(g.first) }

// Grouping returns the memoized grouping of the key columns, building it
// on first use. It lives on the batch, so a site, which stores its detail
// batch, pays for hashing the key once, not once per request.
func (b *Batch) Grouping(cols []int) (*Grouping, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	b.groupMu.Lock()
	defer b.groupMu.Unlock()
	for _, g := range b.groupings {
		if slices.Equal(g.cols, cols) {
			return g, nil
		}
	}
	hashes, err := hashLanes(b, cols)
	if err != nil {
		return nil, err
	}
	g := &Grouping{src: b, cols: slices.Clone(cols), ids: make([]int32, b.n), keys: make([]*Col, len(cols)), perm: make([]*Col, len(b.Cols))}
	for k, ci := range cols {
		g.keys[k] = &b.Cols[ci]
	}
	// The same index relation.DistinctProject uses, with lane equality in
	// place of row equality.
	var lane int
	sameKey := func(id int) bool { return g.laneIs(int(g.first[id]), lane) }
	for l, h := range hashes {
		lane = l
		id, ok := g.index.Find(h, sameKey)
		if !ok {
			id = len(g.first)
			g.first = append(g.first, int32(l))
			g.index.Add(h, id)
		}
		g.ids[l] = int32(id)
	}
	// The lanes of each group, by a counting sort on ids that keeps scan
	// order: offs[id] counts up to the end of group id, which is where
	// group id+1 starts.
	g.offs = make([]int32, len(g.first)+1)
	for _, id := range g.ids {
		g.offs[id+1]++
	}
	for id := 1; id < len(g.offs); id++ {
		g.offs[id] += g.offs[id-1]
	}
	g.lanes = make([]int32, b.n)
	for l, id := range g.ids {
		g.lanes[g.offs[id]] = int32(l)
		g.offs[id]++
	}
	copy(g.offs[1:], g.offs)
	g.offs[0] = 0
	b.groupings = append(b.groupings, g)
	return g, nil
}

// laneIs reports whether two lanes carry the same key.
func (g *Grouping) laneIs(i, j int) bool {
	for _, c := range g.keys {
		if !relation.SameKey(c.Value(i), c.Value(j)) {
			return false
		}
	}
	return true
}

// Find returns the view lanes, a run in scan order, of the group whose key
// row holds at positions idx (one per key column), or no lanes when no lane
// holds it. The key hashes once, and each group on its hash chain is
// checked on its first lane alone: a group is one key, so the rest of its
// lanes match exactly when the first does.
func (g *Grouping) Find(row relation.Row, idx []int) Sel {
	id, ok := g.index.Find(relation.HashRow(row, idx), func(id int) bool {
		lane := int(g.first[id])
		for k, c := range g.keys {
			if !relation.SameKey(row[idx[k]], c.Value(lane)) {
				return false
			}
		}
		return true
	})
	if !ok {
		return Sel{n: g.src.n}
	}
	return Sel{lanes: g.src.identity()[g.offs[id]:g.offs[id+1]], n: g.src.n}
}

// View returns the grouping's clustered view of the listed columns: a
// batch of the source's schema and lane count whose lane i holds source
// lane lanes[i] of each listed column, so Find's runs select a group's
// lanes in scan order. Reading another column is an error. Views live as
// long as the batch, memoized by column set, and share permuted columns.
func (g *Grouping) View(cols []int) (*Batch, error) {
	b := g.src
	want := make([]bool, len(b.Cols))
	for _, ci := range cols {
		if err := b.checkCol(ci); err != nil {
			return nil, err
		}
		want[ci] = true
	}
	b.groupMu.Lock()
	defer b.groupMu.Unlock()
	for _, v := range g.views {
		if slices.Equal(v.clustered, want) {
			return v, nil
		}
	}
	v := &Batch{Schema: b.Schema, Cols: make([]Col, len(b.Cols)), n: b.n, clustered: want}
	for _, ci := range cols {
		if c := &b.Cols[ci]; g.perm[ci] == nil {
			p := &Col{Kind: c.Kind, Dict: c.Dict, Ints: gather(c.Ints, g.lanes),
				Floats: gather(c.Floats, g.lanes), Codes: gather(c.Codes, g.lanes)}
			if c.Nulls != nil {
				p.Nulls = NewBitmap(b.n)
				for i, l := range g.lanes {
					if c.Nulls.Get(int(l)) {
						p.Nulls.Set(i)
					}
				}
			}
			g.perm[ci] = p
		}
		v.Cols[ci] = *g.perm[ci]
	}
	v.allOnce.Do(func() { v.all = b.identity() })
	g.views = append(g.views, v)
	return v, nil
}

// gather returns xs[lanes[0]], xs[lanes[1]], …; nil for nil.
func gather[T any](xs []T, lanes []int32) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(lanes))
	for i, l := range lanes {
		out[i] = xs[l]
	}
	return out
}

// Distinct is the set-projection kernel. Of the selected lanes it returns,
// in selection order, the first lane of every distinct key over cols —
// the lanes whose rows relation.DistinctProject(cols) would keep had it
// scanned the selected rows in that order.
func Distinct(b *Batch, cols []int, sel Sel) (Sel, error) {
	if err := b.owns(sel); err != nil {
		return Sel{}, err
	}
	g, err := b.Grouping(cols)
	if err != nil {
		return Sel{}, err
	}
	seen := NewBitmap(g.Len())
	out := make([]int32, 0, min(g.Len(), sel.Len()))
	for _, lane := range sel.lanes {
		id := int(g.ids[lane])
		if seen.Get(id) {
			continue
		}
		seen.Set(id)
		out = append(out, lane)
		if len(out) == g.Len() {
			break // every group of the batch has been seen
		}
	}
	return Sel{lanes: out, n: b.n}, nil
}
