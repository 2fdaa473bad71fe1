package vec

//lint:deterministic the distinct kernel must keep the row engine's first-seen order

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// grouping is the dense numbering of a batch's lanes by a key-column set:
// ids[lane] is the lane's group, and groups are numbered in first-seen
// scan order. Two lanes share a group exactly when
// relation.DistinctProject would fold their rows together — same chained
// key hash and relation.KeysEqual on the key columns.
type grouping struct {
	ids []int32
	n   int // number of groups
}

// grouping returns the memoized group numbering of the key columns,
// building it on first use. Like Buckets it lives on the batch, so a site
// that caches its detail batch pays for hashing the key once, not once
// per request.
func (b *Batch) grouping(cols []int) (*grouping, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	key := fmt.Sprint(cols)
	b.bucketMu.Lock()
	defer b.bucketMu.Unlock()
	if g, ok := b.groupMemo[key]; ok {
		return g, nil
	}
	hashes := make([]uint64, b.n)
	if err := HashLanes(b, cols, b.AllLanes(), hashes); err != nil {
		return nil, err
	}
	g := &grouping{ids: make([]int32, b.n)}
	// The same index relation.DistinctProject uses, with lane equality in
	// place of row equality: first[id] is group id's first lane.
	var index relation.KeyIndex
	var first []int32
	var lane int32
	sameKey := func(id int) bool { return b.keysEqual(cols, first[id], lane) }
	for l, h := range hashes {
		lane = int32(l)
		id, ok := index.Find(h, sameKey)
		if !ok {
			id = len(first)
			first = append(first, lane)
			index.Add(h, id)
		}
		g.ids[l] = int32(id)
	}
	g.n = len(first)
	if b.groupMemo == nil {
		b.groupMemo = make(map[string]*grouping)
	}
	b.groupMemo[key] = g
	return g, nil
}

// keysEqual is relation.KeysEqual on two lanes' raw payloads: NULL matches
// only NULL, and two floats match unless one orders before the other (so
// ±0 are one key and NaNs are one key).
func (b *Batch) keysEqual(cols []int, i, j int32) bool {
	for _, ci := range cols {
		c := &b.Cols[ci]
		ni, nj := c.IsNull(int(i)), c.IsNull(int(j))
		if ni || nj {
			if ni != nj {
				return false
			}
			continue
		}
		switch c.Kind {
		case value.KindBool, value.KindInt:
			if c.Ints[i] != c.Ints[j] {
				return false
			}
		case value.KindFloat:
			if x, y := c.Floats[i], c.Floats[j]; x < y || x > y {
				return false
			}
		case value.KindString:
			if c.Codes[i] != c.Codes[j] && c.Dict[c.Codes[i]] != c.Dict[c.Codes[j]] {
				return false
			}
		}
	}
	return true
}

// Distinct is the set-projection kernel. Of the selected lanes it returns,
// in selection order, the first lane of every distinct key over cols —
// the lanes whose rows relation.DistinctProject(cols) would keep had it
// scanned the selected rows in that order.
func Distinct(b *Batch, cols []int, sel []int32) ([]int32, error) {
	if err := b.checkSel(sel); err != nil {
		return nil, err
	}
	g, err := b.grouping(cols)
	if err != nil {
		return nil, err
	}
	seen := NewBitmap(g.n)
	out := make([]int32, 0, min(g.n, len(sel)))
	for _, lane := range sel {
		id := int(g.ids[lane])
		if seen.Get(id) {
			continue
		}
		seen.Set(id)
		out = append(out, lane)
		if len(out) == g.n {
			break // every group of the batch has been seen
		}
	}
	return out, nil
}
