package core

//lint:wrap-errors merge errors must preserve their causes for errors.Is/As

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/relation"
	"repro/internal/value"
)

// keyedMerge is the Theorem-1 merge, the one implementation of it in this
// package: sub-aggregate fragments are resolved to their groups — by the
// key attributes K, or by position for a states-only fragment (merge) —
// and their primitive states merged associatively, one agg.Slab group per
// group row. The coordinator (synchronize) finalizes the merged states
// into new columns of X; a relay tier (Relay.evalRounds) re-emits them as
// one pre-merged fragment.
type keyedMerge struct {
	keys   []string
	specs  []agg.Spec
	rows   []relation.Row // one row per group, in first-seen order
	keyIdx []int          // positions of keys in rows
	// index resolves keys to groups, each added as a keyed fragment brings
	// it, so a positional merge never hashes K.
	index relation.KeyIndex
	accs  *agg.Slab
	// kept marks, as a Response.Kept bitmap, every group a fragment
	// contributed to; nil unless a relay asked for it.
	kept []byte
}

// newKeyedMerge starts a merge over the given group rows, which states-only
// fragments address by position; a keyed merge starts with none and adds
// groups as its fragments bring them.
func newKeyedMerge(schema *relation.Schema, rows []relation.Row, keys []string, specs []agg.Spec) (*keyedMerge, error) {
	keyIdx, err := lookupAll(schema, keys)
	if err != nil {
		return nil, err
	}
	return &keyedMerge{keys: keys, specs: specs, rows: rows, keyIdx: keyIdx, accs: agg.NewSlab(specs, len(rows))}, nil
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
// in schema, in the slab's spec-then-primitive order.
func primCols(schema *relation.Schema, specs []agg.Spec) ([]int, error) {
	var prims []int
	for _, sp := range specs {
		for pi := range sp.Prims() {
			p, err := schema.MustLookup(sp.SubColName(pi))
			if err != nil {
				return nil, err
			}
			prims = append(prims, p)
		}
	}
	return prims, nil
}

// positions maps a states-only reply's rows to groups: row j answers the
// j-th shipped row kept marks (Response.Kept; nil marks all), and shipped
// row k is group idx[k] (k when idx is nil).
func positions(idx []int, shipped int, kept []byte) []int {
	at := make([]int, 0, shipped)
	for k := 0; k < shipped; k++ {
		if kept != nil && (k/8 >= len(kept) || kept[k/8]&(1<<(k%8)) == 0) {
			continue
		}
		if idx != nil {
			at = append(at, idx[k])
		} else {
			at = append(at, k)
		}
	}
	return at
}

// merge folds fragment h into the groups; columns are resolved in h by
// name. A states-only reply, the answer to a shipped base, is placed by
// position: row j is group at[j]. Any other fragment (nil at) carries the
// keys and resolves by them, a group first seen there taking its row from
// the fragment positions newRow.
func (m *keyedMerge) merge(h *relation.Relation, newRow []int, at []int) error {
	prims, err := primCols(h.Schema, m.specs)
	if err != nil {
		return err
	}
	var hKey []int
	if at == nil {
		hKey, err = lookupAll(h.Schema, m.keys)
	} else if len(at) != len(h.Rows) {
		err = fmt.Errorf("states-only fragment has %d rows for %d kept positions", len(h.Rows), len(at))
	}
	if err != nil {
		return err
	}
	var row relation.Row
	sameKey := func(pos int) bool { return relation.KeysEqual(row, hKey, m.rows[pos], m.keyIdx) }
	for j := range h.Rows {
		row = h.Rows[j]
		var pos int
		if at != nil {
			pos = at[j]
		} else {
			hash := relation.HashRow(row, hKey)
			var ok bool
			if pos, ok = m.index.Find(hash, sameKey); !ok {
				nr := make(relation.Row, len(newRow))
				for i, p := range newRow {
					nr[i] = row[p]
				}
				m.rows = append(m.rows, nr)
				pos = m.accs.AddGroup()
				m.index.Add(hash, pos)
			}
		}
		group := m.accs.Group(pos)
		for pi, p := range prims {
			if err := group[pi].Merge(row[p]); err != nil {
				return fmt.Errorf("group merge: %w", err)
			}
		}
		if m.kept != nil {
			m.kept[pos/8] |= 1 << (pos % 8)
		}
	}
	return nil
}

// finalized emits the group rows extended with one finalized aggregate
// column per spec — the coordinator's new X.
func (m *keyedMerge) finalized(schema *relation.Schema) (*relation.Relation, error) {
	outCols := make([]relation.Column, len(m.specs))
	for i, sp := range m.specs {
		outCols[i] = sp.OutColumn()
	}
	outSchema, err := schema.Concat(outCols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	out.Rows = relation.MakeRows(len(m.rows), outSchema.Len())
	var states []value.V // one spec's merged primitive states, reused
	for gi, row := range m.rows {
		nr := append(out.Rows[gi], row...)
		for si, sp := range m.specs {
			spec := m.accs.Spec(gi, si)
			states = states[:0]
			for pi := range spec {
				states = append(states, spec[pi].Result())
			}
			v, err := sp.Finalize(states)
			if err != nil {
				return nil, fmt.Errorf("finalize %s: %w", sp.As, err)
			}
			nr = append(nr, v)
		}
		out.Rows[gi] = nr
	}
	return out, nil
}

// states emits the group rows with their primitive state columns replaced
// by the merged values — a fragment of the same schema as the keyed ones
// merged, for the tier above. The group rows must be the merge's own (it
// overwrites them).
func (m *keyedMerge) states(schema *relation.Schema) (*relation.Relation, error) {
	prims, err := primCols(schema, m.specs)
	if err != nil {
		return nil, err
	}
	for gi, row := range m.rows {
		group := m.accs.Group(gi)
		for pi, p := range prims {
			row[p] = group[pi].Result()
		}
	}
	out := relation.New(schema)
	out.Rows = m.rows
	return out, nil
}

// keptStates emits a states-only fragment for the tier above: the merged
// primitive states of every group kept marks, in group order, and the
// Response.Kept bitmap naming them (nil when it names every group).
func (m *keyedMerge) keptStates() (*relation.Relation, []byte, error) {
	var cols []relation.Column
	for _, sp := range m.specs {
		cols = append(cols, sp.SubColumns()...)
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	out := relation.New(schema)
	for gi := range m.rows {
		if m.kept[gi/8]&(1<<(gi%8)) == 0 {
			continue
		}
		group := m.accs.Group(gi)
		row := make(relation.Row, len(group))
		for pi := range group {
			row[pi] = group[pi].Result()
		}
		out.Rows = append(out.Rows, row)
	}
	if out.Len() == len(m.rows) {
		return out, nil, nil
	}
	return out, m.kept, nil
}
