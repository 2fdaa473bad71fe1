package core

//lint:wrap-errors merge errors must preserve their causes for errors.Is/As

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/value"
)

// keyedMerge is the Theorem-1 merge, the one implementation of it in this
// package: sub-aggregate fragments are grouped on the key attributes K and
// their primitive states merged associatively, one agg.Slab group per
// group row. The coordinator (synchronize) finalizes the merged states
// into new columns of X; a relay tier (Relay.evalRounds) re-emits them as
// one pre-merged fragment.
type keyedMerge struct {
	keys   []string
	specs  []agg.Spec
	rows   []relation.Row // one row per group, in first-seen order
	keyIdx []int          // positions of keys in rows
	index  relation.KeyIndex
	accs   *agg.Slab
	// touched sums the fragments' gmdj.TouchedCol per group; nil unless
	// the merge was asked to carry the counter (relay tiers).
	touched []int64
}

// newKeyedMerge starts a merge over the given group rows (which may be
// empty: groups are then added as fragments bring them).
func newKeyedMerge(schema *relation.Schema, rows []relation.Row, keys []string, specs []agg.Spec, sumTouched bool) (*keyedMerge, error) {
	keyIdx, err := lookupAll(schema, keys)
	if err != nil {
		return nil, err
	}
	m := &keyedMerge{keys: keys, specs: specs, rows: rows, keyIdx: keyIdx, accs: agg.NewSlab(specs, len(rows))}
	for pos, row := range rows {
		m.index.Add(relation.HashRow(row, keyIdx), pos)
	}
	if sumTouched {
		m.touched = make([]int64, len(rows))
	}
	return m, nil
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

// merge folds fragment h into the groups; columns are resolved in h by
// name. A group first seen in h takes its row from the fragment positions
// newRow; a nil newRow makes an unknown group an error.
func (m *keyedMerge) merge(h *relation.Relation, newRow []int) error {
	hKey, err := lookupAll(h.Schema, m.keys)
	if err != nil {
		return err
	}
	prims, err := primCols(h.Schema, m.specs)
	if err != nil {
		return err
	}
	touched := -1
	if m.touched != nil {
		if touched, err = h.Schema.MustLookup(gmdj.TouchedCol); err != nil {
			return err
		}
	}
	var row relation.Row
	sameKey := func(pos int) bool { return relation.KeysEqual(row, hKey, m.rows[pos], m.keyIdx) }
	for _, row = range h.Rows {
		hash := relation.HashRow(row, hKey)
		pos, ok := m.index.Find(hash, sameKey)
		if !ok {
			if newRow == nil {
				return fmt.Errorf("unknown group")
			}
			nr := make(relation.Row, len(newRow))
			for i, p := range newRow {
				nr[i] = row[p]
			}
			m.rows = append(m.rows, nr)
			pos = m.accs.AddGroup()
			m.index.Add(hash, pos)
			if m.touched != nil {
				m.touched = append(m.touched, 0)
			}
		}
		group := m.accs.Group(pos)
		for pi, p := range prims {
			if err := group[pi].Merge(row[p]); err != nil {
				return fmt.Errorf("group merge: %w", err)
			}
		}
		if touched >= 0 {
			t, err := row[touched].AsInt()
			if err != nil {
				return err
			}
			m.touched[pos] += t
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

// states emits the group rows with their primitive state columns (and the
// touched counter, when carried) replaced by the merged values — a
// fragment of the same schema as the ones merged, for the tier above.
// The group rows must be the merge's own (it overwrites them).
func (m *keyedMerge) states(schema *relation.Schema) (*relation.Relation, error) {
	prims, err := primCols(schema, m.specs)
	if err != nil {
		return nil, err
	}
	touched := -1
	if m.touched != nil {
		if touched, err = schema.MustLookup(gmdj.TouchedCol); err != nil {
			return nil, err
		}
	}
	for gi, row := range m.rows {
		group := m.accs.Group(gi)
		for pi, p := range prims {
			row[p] = group[pi].Result()
		}
		if touched >= 0 {
			row[touched] = value.NewInt(m.touched[gi])
		}
	}
	out := relation.New(schema)
	out.Rows = m.rows
	return out, nil
}
