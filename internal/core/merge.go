package core

//lint:wrap-errors merge errors must preserve their causes for errors.Is/As

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/value"
)

// keyedMerge is the Theorem-1 merge, the one implementation of it in this
// package: sub-aggregate fragments are resolved to their groups — by the
// key attributes K (mergeKeyed), by position for a states-only fragment
// (merge), or each row as a group of its own on a site-disjoint step
// (fold) — and their primitive states merged associatively into one
// agg.Slab, one primitive column at a time. The root coordinator finalizes
// the merged states into new columns of X (finalized); a relay tier
// re-emits them as one pre-merged fragment for the tier above (tier).
type keyedMerge struct {
	schema *relation.Schema // of rows
	keys   []string
	specs  []agg.Spec
	rows   []relation.Row // one row per group, in first-seen order
	keyIdx []int          // positions of keys in rows
	room   int            // Step.room: the spare capacity of a boxed group row
	// index resolves keys to groups, each added as a keyed fragment brings
	// it, so a positional merge never hashes K.
	index relation.KeyIndex
	accs  *agg.Slab
	// prims are the slab's primitive columns in primSchema, the schema the
	// fragments of one step share.
	prims      []int
	primSchema *relation.Schema
	at         []int // a fragment's groups, row by row; reused
	// kept marks, as a Response.Kept bitmap, every group a fragment
	// contributed to; nil unless a relay tier merges by position.
	kept []byte
	// hashes holds a fold's group keys by hash, and sites the sites whose
	// fragments it folded, for checkDisjoint; nil unless the merge folds.
	hashes []keyHash
	sites  []string
}

// keyHash is the hash of a folded group's key, and the site that brought
// the group, as an index into keyedMerge.sites.
type keyHash struct {
	hash        uint64
	group, site int32
}

// newKeyedMerge starts a merge over the given group rows, which states-only
// fragments address by position; a keyed merge starts with none and adds
// groups as its fragments bring them.
func newKeyedMerge(schema *relation.Schema, rows []relation.Row, keys []string, specs []agg.Spec, room int) (*keyedMerge, error) {
	keyIdx, err := lookupAll(schema, keys)
	if err != nil {
		return nil, err
	}
	return &keyedMerge{schema: schema, keys: keys, specs: specs, rows: rows, keyIdx: keyIdx, room: room, accs: agg.NewSlab(specs, len(rows))}, nil
}

// carve cuts an empty row of capacity n from the front of *chunk, first
// refilling a chunk too short with room for rows such rows.
func carve(chunk *[]value.V, n, rows int) relation.Row {
	if len(*chunk) < n {
		*chunk = make([]value.V, n*rows)
	}
	r := (*chunk)[:0:n]
	*chunk = (*chunk)[n:]
	return r
}

// lookupAll resolves column names to positions in schema.
func lookupAll(schema *relation.Schema, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		p, err := schema.MustLookup(name)
		if err != nil {
			return nil, err
		}
		idx[i] = p
	}
	return idx, nil
}

// primCols resolves the positions of the specs' primitive state columns
// in schema, in the slab's spec-then-primitive order, once for all the
// fragments that share schema.
func (m *keyedMerge) primCols(schema *relation.Schema) ([]int, error) {
	if m.primSchema != nil && m.primSchema.Equal(schema) {
		return m.prims, nil
	}
	var prims []int
	for _, sp := range m.specs {
		for pi := range sp.Prims() {
			p, err := schema.MustLookup(sp.SubColName(pi))
			if err != nil {
				return nil, err
			}
			prims = append(prims, p)
		}
	}
	m.prims, m.primSchema = prims, schema
	return prims, nil
}

// placement maps a states-only fragment's rows to groups: row j answers
// the j-th shipped row kept marks (Response.Kept; nil marks all), and
// shipped row k is group idx[k] (k when idx is nil).
type placement struct {
	idx     []int
	shipped int
	kept    []byte
}

// groups appends to dst the group of every fragment row, in order.
func (pl placement) groups(dst []int) []int {
	dst = slices.Grow(dst, pl.shipped)
	for k := 0; k < pl.shipped; k++ {
		if pl.kept != nil && pl.kept[k/8]&(1<<(k%8)) == 0 {
			continue
		}
		g := k
		if pl.idx != nil {
			g = pl.idx[k]
		}
		dst = append(dst, g)
	}
	return dst
}

// merge folds the states of states-only fragment h, placed by pl, into the
// groups.
func (m *keyedMerge) merge(h *relation.Frame, pl placement) error {
	// A kept bitmap is ⌈shipped/8⌉ bytes, clear past the last shipped row.
	if pl.kept != nil && (len(pl.kept) != (pl.shipped+7)/8 || pl.shipped%8 != 0 && pl.kept[len(pl.kept)-1]>>(pl.shipped%8) != 0) {
		return fmt.Errorf("kept bitmap % x is not over the %d shipped rows", pl.kept, pl.shipped)
	}
	if m.at = pl.groups(m.at[:0]); len(m.at) != h.Len() {
		return fmt.Errorf("states-only fragment has %d rows for %d kept positions", h.Len(), len(m.at))
	}
	return m.mergeAt(h)
}

// mergeAt folds the states of fragment h, row j into group at[j], one
// primitive column at a time; columns are resolved by name.
func (m *keyedMerge) mergeAt(h *relation.Frame) error {
	prims, err := m.primCols(h.Schema)
	if err != nil {
		return err
	}
	for p, c := range prims {
		err := h.Lane(c, func(j int, v value.V) error { return m.accs.Merge(m.at[j], p, v) })
		if err != nil {
			return fmt.Errorf("group merge: %w", err)
		}
	}
	if m.kept != nil {
		for _, g := range m.at {
			m.kept[g/8] |= 1 << (g % 8)
		}
	}
	return nil
}

// mergeKeyed folds keyed fragment h, whose rows are its K boxed with room
// for the columns this and later steps append: each row resolves to its
// group by K, a group first seen there taking the row as its own.
func (m *keyedMerge) mergeKeyed(h *relation.Frame, rows []relation.Row) error {
	var row relation.Row
	sameKey := func(pos int) bool { return relation.KeysEqual(row, m.keyIdx, m.rows[pos], m.keyIdx) }
	m.at = m.at[:0]
	for _, row = range rows {
		hash := relation.HashRow(row, m.keyIdx)
		pos, ok := m.index.Find(hash, sameKey)
		if !ok {
			m.rows = append(m.rows, row)
			pos = m.accs.AddGroup()
			m.index.Add(hash, pos)
		}
		m.at = append(m.at, pos)
	}
	return m.mergeAt(h)
}

// fold adds the rows of keyed fragment h from site, boxed as mergeKeyed's
// are, as groups of their own: on a site-disjoint step (Corollary 1) no
// other fragment brings the same key, so nothing is indexed. The keys'
// hashes are kept for checkDisjoint.
func (m *keyedMerge) fold(site string, h *relation.Frame, rows []relation.Row) error {
	s := int32(len(m.sites))
	m.at = slices.Grow(m.at[:0], len(rows))
	for _, row := range rows {
		m.at = append(m.at, len(m.rows))
		m.hashes = append(m.hashes, keyHash{relation.HashRow(row, m.keyIdx), int32(len(m.rows)), s})
		m.rows = append(m.rows, row)
	}
	m.accs.AddGroups(len(rows))
	m.sites = append(m.sites, site)
	return m.mergeAt(h)
}

// checkDisjoint proves a fold's premise after the last fragment: no two
// groups share a key. It sorts the keys' hashes and compares keys only
// within a run of equal hashes. A key two sites brought means the catalog's
// partition claim is false, and fails the round naming the key and both
// sites: a fold never returns a duplicated group.
func (m *keyedMerge) checkDisjoint() error {
	slices.SortFunc(m.hashes, func(a, b keyHash) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.group, b.group))
	})
	for i := 1; i < len(m.hashes); i++ {
		for j := i - 1; j >= 0 && m.hashes[j].hash == m.hashes[i].hash; j-- {
			a, b := m.hashes[j], m.hashes[i]
			if relation.KeysEqual(m.rows[a.group], m.keyIdx, m.rows[b.group], m.keyIdx) {
				return fmt.Errorf("key (%s) answered by sites %s and %s", m.keyText(int(a.group)), m.sites[a.site], m.sites[b.site])
			}
		}
	}
	return nil
}

// keyText renders folded group g's key as name=value pairs.
func (m *keyedMerge) keyText(g int) string {
	parts := make([]string, len(m.keys))
	for i, p := range m.keyIdx {
		parts[i] = m.schema.Cols[p].Name + "=" + m.rows[g][p].String()
	}
	return strings.Join(parts, ", ")
}

// finalized emits the group rows extended with one finalized aggregate
// column per spec — the coordinator's new X. A keyed merge's header array
// becomes X's, a positional one's (x's) is copied. A row with room takes
// the columns in place, past the end any earlier X sees; one without is
// first copied into a carved row.
func (m *keyedMerge) finalized() (*relation.Relation, error) {
	outCols := make([]relation.Column, len(m.specs))
	for i, sp := range m.specs {
		outCols[i] = sp.OutColumn()
	}
	outSchema, err := m.schema.Concat(outCols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Rows = m.rows
	if len(m.keys) == 0 {
		out.Rows = make([]relation.Row, len(m.rows))
	}
	var chunk []value.V
	for gi, nr := range m.rows {
		if cap(nr)-len(nr) < len(m.specs) {
			nr = append(carve(&chunk, len(nr)+max(m.room, len(m.specs)), len(m.rows)-gi), nr...)
		}
		for si, sp := range m.specs {
			v, err := m.accs.Finalize(gi, si)
			if err != nil {
				return nil, fmt.Errorf("finalize %s: %w", sp.As, err)
			}
			nr = append(nr, v)
		}
		out.Rows[gi] = nr
	}
	return out, nil
}

// tier emits the merge as one fragment for the tier above, in the shape a
// leaf answers the same request with: a keyed merge's group rows (the base
// columns), then every spec's merged primitive states. A positional merge
// echoes no base columns and emits only the groups some fragment answered,
// in group order, returning the Response.Kept bitmap that names them (nil
// when it names every group).
func (m *keyedMerge) tier() (*relation.Relation, []byte, error) {
	echo := 0 // the base columns each row leads with
	if len(m.keys) > 0 {
		echo = m.schema.Len()
	}
	cols := append([]relation.Column(nil), m.schema.Cols[:echo]...)
	for _, sp := range m.specs {
		cols = append(cols, sp.SubColumns()...)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	rows := relation.MakeRows(len(m.rows), schema.Len())
	out := &relation.Relation{Schema: schema, Rows: rows[:0]}
	for gi, row := range m.rows {
		if m.kept != nil && m.kept[gi/8]&(1<<(gi%8)) == 0 {
			continue
		}
		nr := append(rows[len(out.Rows)], row[:echo]...)
		for p := 0; p < m.accs.Width(); p++ {
			nr = append(nr, m.accs.Result(gi, p))
		}
		out.Rows = append(out.Rows, nr)
	}
	if out.Len() == len(m.rows) {
		return out, nil, nil
	}
	return out, m.kept, nil
}
