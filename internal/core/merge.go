package core

//lint:wrap-errors merge errors must preserve their causes for errors.Is/As

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/value"
)

// keyedMerge is the Theorem-1 merge, the one implementation of it in this
// package: sub-aggregate fragments are resolved to their groups — by the
// key attributes K (mergeKeyed), or by position for a states-only fragment
// (merge) — and their primitive states merged associatively into one
// agg.Slab, one primitive column at a time. The root coordinator finalizes
// the merged states into new columns of X (finalized); a relay tier
// frames them as one pre-merged fragment for the tier above (tier). Its
// working memory comes from merges and goes back there (release) once the
// merge is emitted.
type keyedMerge struct {
	*mergeMem
	schema *relation.Schema // of rows
	keys   []string
	specs  []agg.Spec
	rows   []relation.Row // one row per group, in first-seen order
	keyIdx []int          // positions of keys in rows
	room   int            // Step.room: the spare capacity of a boxed group row
	// prims are the slab's primitive columns in primSchema, the schema the
	// fragments of one step share.
	prims      []int
	primSchema *relation.Schema
	// kept marks, as a Response.Kept bitmap, every group a fragment
	// contributed to; nil unless a relay tier merges by position.
	kept []byte
	// disjoint has mergeKeyed check a step's claim (Step.disjoint) on the
	// partition attributes, when known; sites and starts record each keyed
	// fragment's site and the first group it could bring.
	disjoint  bool
	partition []string
	sites     []string
	starts    []int
	// Keyed fragments merge as they arrive, so the groups' slots and rows
	// follow the arrivals; shuffled is set once a fragment arrived before
	// an earlier client's, and siteOrder then puts rows in client order.
	last     int
	shuffled bool
}

// mergeMem is a merge's working memory, which outlives the merge: taken
// from merges when the merge starts and handed back, cleared, once it is
// emitted, so a round allocates none of it once the pool holds memory of
// its size. The merge that takes it resets each field before reading it.
type mergeMem struct {
	accs agg.Slab
	// index resolves keys to groups, each added as a keyed fragment brings
	// it, so a positional merge never hashes K.
	index   relation.KeyIndex
	at      []int          // a states-only fragment's groups, row by row
	headers []relation.Row // a keyed merge's rows; X gets a copy
	// brought is, per client in the coordinator's order, its keyed
	// fragment's rows and the slot each resolved to.
	brought []fragment
	seen    []bool          // siteOrder's: the groups placed
	order   []int32         // siteOrder's: order[k] names row k's slot
	typed   agg.LaneScratch // a typed reply lane's states, as mergeAt reads it
}

// merges holds the working memory of the merges no round is running,
// shared by every coordinator and relay in the process.
var merges = sync.Pool{New: func() any { return new(mergeMem) }}

// fragment is a keyed fragment's rows and their slots.
type fragment struct {
	rows []relation.Row
	at   []int
}

// newKeyedMerge starts a merge over the given group rows, which states-only
// fragments address by position; a keyed merge starts with none and adds
// groups as its fragments bring them, in the room reserve makes.
func newKeyedMerge(schema *relation.Schema, rows []relation.Row, keys []string, specs []agg.Spec, room int) (*keyedMerge, error) {
	keyIdx, err := lookupAll(schema, keys)
	if err != nil {
		return nil, err
	}
	mem := merges.Get().(*mergeMem)
	mem.accs.Reset(specs, len(rows))
	return &keyedMerge{mergeMem: mem, schema: schema, keys: keys, specs: specs, rows: rows, keyIdx: keyIdx, room: room}, nil
}

// reserve makes a keyed merge room for n groups from sites clients. The
// memory keeps any larger room it has, so the reservation is the larger
// of n and the most groups a merge in it held: fragments need not be the
// same size, and a first fragment smaller than the rest makes n too small.
func (m *keyedMerge) reserve(n, sites int) {
	m.rows = slices.Grow(m.headers[:0], n)
	m.accs.Reserve(n)
	m.index.Reserve(n)
	m.brought = slices.Grow(m.brought[:0], sites)[:sites]
}

// release hands the merge's working memory back to merges, cleared of
// every state and fragment row it held, so the pool pins nothing of this
// query. The merge has no memory after it: a later read panics.
func (m *keyedMerge) release() {
	mem := m.mergeMem
	m.mergeMem = nil
	if len(mem.brought) > 0 { // a keyed merge: its rows are the memory's
		clear(m.rows)
		mem.headers = m.rows[:0]
	}
	mem.accs.Reset(nil, 0)
	for i, f := range mem.brought {
		mem.brought[i] = fragment{at: f.at[:0]}
	}
	mem.brought = mem.brought[:0]
	merges.Put(mem)
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
	return m.mergeAt(h, m.at)
}

// mergeAt folds the states of fragment h, row j into group at[j], one
// primitive column at a time (agg.Slab.MergeLane: a typed column in one
// pass); columns are resolved by name.
func (m *keyedMerge) mergeAt(h *relation.Frame, at []int) error {
	prims, err := m.primCols(h.Schema)
	if err != nil {
		return err
	}
	for p, c := range prims {
		if err := m.accs.MergeLane(p, at, h, c, &m.typed); err != nil {
			return fmt.Errorf("group merge: %w", err)
		}
	}
	if m.kept != nil {
		for _, g := range at {
			m.kept[g/8] |= 1 << (g % 8)
		}
	}
	return nil
}

// mergeKeyed folds keyed fragment h from site, whose rows are its K boxed
// with room for the columns this and later steps append: each row resolves
// to its group by K, a group first seen there taking the row as its own. On
// a site-disjoint step a key an earlier fragment brought fails the merge,
// naming both sites: the catalog's partition claim is false, and merging
// the two would answer from a claim the data violates.
func (m *keyedMerge) mergeKeyed(site string, client int, h *relation.Frame, rows []relation.Row) error {
	first := len(m.rows)
	if m.disjoint {
		m.sites, m.starts = append(m.sites, site), append(m.starts, first)
	}
	var row relation.Row
	sameKey := func(pos int) bool { return relation.KeysEqual(row, m.keyIdx, m.rows[pos], m.keyIdx) }
	at := m.brought[client].at
	for _, row = range rows {
		hash := relation.HashRow(row, m.keyIdx)
		pos, ok := m.index.Find(hash, sameKey)
		switch {
		case !ok:
			m.rows = append(m.rows, row)
			pos = m.accs.AddGroup()
			m.index.Add(hash, pos)
		case m.disjoint && pos < first:
			on := ""
			if len(m.partition) > 0 {
				on = " on " + strings.Join(m.partition, ", ")
			}
			earlier := m.sites[sort.SearchInts(m.starts, pos+1)-1]
			return fmt.Errorf("groups are not site-disjoint%s (the catalog's partition claim is false): key (%s) answered by sites %s and %s",
				on, m.keyText(pos), earlier, site)
		}
		at = append(at, pos)
	}
	m.brought[client] = fragment{rows, at}
	m.shuffled, m.last = m.shuffled || client < m.last, client
	return m.mergeAt(h, at)
}

// siteOrder lists the groups, and takes each group's row, as a merge in
// client order would have, so X and the bytes that ship it do not depend
// on which site answered first: the first client's rows, then those of
// the groups the next one brought first, and so on. The rows are the
// fragments' own, so m.rows is rewritten in place.
func (m *keyedMerge) siteOrder() {
	if !m.shuffled {
		return
	}
	seen, order, rows := slices.Grow(m.seen[:0], len(m.rows))[:len(m.rows)], m.order[:0], m.rows[:0]
	clear(seen)
	for _, f := range m.brought {
		for j, g := range f.at {
			if !seen[g] {
				seen[g] = true
				order, rows = append(order, int32(g)), append(rows, f.rows[j])
			}
		}
	}
	m.rows, m.seen, m.order = rows, seen, order
}

// slot returns the slab slot of row k.
func (m *keyedMerge) slot(k int) int {
	if !m.shuffled {
		return k
	}
	return int(m.order[k])
}

// ordered is a slab lane read in a keyed merge's row order. Its rows are
// the slab's groups permuted, so a typed slab lane has the same shape in
// that order over all of them; over the groups of a kept bitmap it reads
// boxed.
type ordered struct {
	src relation.TypedLane
	m   *keyedMerge
}

func (o ordered) Values(dst []value.V, from int, kindsOnly bool) {
	for k := range dst {
		o.src.Values(dst[k:k+1], o.m.slot(from+k), kindsOnly)
	}
}

func (o ordered) Shape(n int, kept []byte) (value.Kind, bool, bool) {
	if kept != nil {
		return value.KindNull, false, false
	}
	return o.src.Shape(n, nil)
}

func (o ordered) Ints(ints []int64, valid []bool, from int) {
	for k := range ints {
		o.src.Ints(ints[k:k+1], valid[k:k+1], o.m.slot(from+k))
	}
}

func (o ordered) Floats(floats []float64, valid []bool, from int) {
	for k := range floats {
		o.src.Floats(floats[k:k+1], valid[k:k+1], o.m.slot(from+k))
	}
}

// keyText renders group g's key as name=value pairs.
func (m *keyedMerge) keyText(g int) string {
	parts := make([]string, len(m.keys))
	for i, p := range m.keyIdx {
		parts[i] = m.schema.Cols[p].Name + "=" + m.rows[g][p].String()
	}
	return strings.Join(parts, ", ")
}

// finalized emits the group rows extended with one finalized aggregate
// column per spec — the coordinator's new X, in a header array of its own
// (a keyed merge's is working memory, a positional one's the previous
// X's). A row with room takes the columns in place, past the end any
// earlier X sees; one without is first copied into a carved row. It
// releases the merge.
func (m *keyedMerge) finalized() (*relation.Relation, error) {
	defer m.release()
	outCols := make([]relation.Column, len(m.specs))
	for i, sp := range m.specs {
		outCols[i] = sp.OutColumn()
	}
	outSchema, err := m.schema.Concat(outCols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Rows = make([]relation.Row, len(m.rows))
	var chunk []value.V
	for gi, nr := range m.rows {
		if cap(nr)-len(nr) < len(m.specs) {
			nr = append(carve(&chunk, len(nr)+max(m.room, len(m.specs)), len(m.rows)-gi), nr...)
		}
		for si, sp := range m.specs {
			v, err := m.accs.Finalize(m.slot(gi), si)
			if err != nil {
				return nil, fmt.Errorf("finalize %s: %w", sp.As, err)
			}
			nr = append(nr, v)
		}
		out.Rows[gi] = nr
	}
	return out, nil
}

// tier frames the merge as one fragment for the tier above, in the shape a
// leaf answers the same request with: a keyed merge's group rows (the base
// columns), then every spec's merged primitive states. A positional merge
// echoes no base columns and frames only the groups some fragment answered,
// in group order, returning the Response.Kept bitmap that names them (nil
// when it names every group). Neither is working memory, so the relay
// releases the merge after it.
func (m *keyedMerge) tier() (*relation.Frame, []byte, error) {
	var cols []relation.Column
	var lanes []relation.LaneSource
	if len(m.keys) > 0 { // each row leads with the base columns
		cols = append(cols, m.schema.Cols...)
		lanes = relation.RowLanes(m.rows, m.schema.Indexes())
	}
	for _, sp := range m.specs {
		cols = append(cols, sp.SubColumns()...)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	for p := 0; p < m.accs.Width(); p++ {
		lane := m.accs.Lane(p)
		if m.shuffled {
			lane = ordered{lane, m}
		}
		lanes = append(lanes, lane)
	}
	out := relation.EncodeFrame(schema, len(m.rows), m.kept, lanes)
	if out.Len() == len(m.rows) {
		return out, nil, nil
	}
	return out, m.kept, nil
}
