// Package relation implements the in-memory relational storage used by the
// Skalla sites and coordinator: schemas, row-oriented relations, key
// hashing, projection with duplicate elimination, and hash indexes.
//
// Relations are deliberately simple — a schema plus a slice of rows — which
// is all the paper's local warehouse substrate (Daytona in the original
// system) needs to expose to the GMDJ evaluator.
package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/value"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of named, typed columns. Every schema comes
// from NewSchema — a decoded frame's too — and is never changed after, so
// concurrent lookups need no lock.
type Schema struct {
	Cols []Column
	// byName maps lower-cased column names to positions.
	byName map[string]int
}

// NewSchema builds a schema from columns, validating name uniqueness.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if c.Name == "" {
			return nil, fmt.Errorf("relation: column %d has empty name", i)
		}
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for tests and literals.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Lookup returns the position of the named column (case-insensitive) and
// whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// MustLookup returns the position of the named column or an error naming
// the missing column and the available ones.
func (s *Schema) MustLookup(name string) (int, error) {
	if i, ok := s.Lookup(name); ok {
		return i, nil
	}
	return 0, fmt.Errorf("relation: no column %q in schema (%s)", name, s)
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(name:KIND, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have identical column names (case
// insensitive) and kinds, in the same order.
func (s *Schema) Equal(t *Schema) bool {
	if len(s.Cols) != len(t.Cols) {
		return false
	}
	for i := range s.Cols {
		if !strings.EqualFold(s.Cols[i].Name, t.Cols[i].Name) ||
			s.Cols[i].Kind != t.Cols[i].Kind {
			return false
		}
	}
	return true
}

// Project returns a new schema containing the named columns, plus the
// positions of those columns in s.
func (s *Schema) Project(names []string) (*Schema, []int, error) {
	cols := make([]Column, len(names))
	idx := make([]int, len(names))
	for i, n := range names {
		p, err := s.MustLookup(n)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = s.Cols[p]
		idx[i] = p
	}
	out, err := NewSchema(cols...)
	if err != nil {
		return nil, nil, err
	}
	return out, idx, nil
}

// Concat returns a schema with s's columns followed by extra columns.
func (s *Schema) Concat(extra ...Column) (*Schema, error) {
	cols := make([]Column, 0, len(s.Cols)+len(extra))
	cols = append(cols, s.Cols...)
	cols = append(cols, extra...)
	return NewSchema(cols...)
}

// Row is one tuple; its length always matches the owning schema.
type Row = []value.V

// Relation is a schema plus a bag of rows.
type Relation struct {
	Schema *Schema
	Rows   []Row
}

// New returns an empty relation over the given schema.
func New(s *Schema) *Relation { return &Relation{Schema: s} }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Append adds a row after checking its arity.
func (r *Relation) Append(row Row) error {
	if len(row) != r.Schema.Len() {
		return fmt.Errorf("relation: row has %d values, schema %s has %d columns",
			len(row), r.Schema, r.Schema.Len())
	}
	r.Rows = append(r.Rows, row)
	return nil
}

// MustAppend is Append but panics on arity mismatch; for tests.
func (r *Relation) MustAppend(vals ...value.V) {
	if err := r.Append(vals); err != nil {
		panic(err)
	}
}

// Validate refuses a relation that has no frame: no schema, or a row of the
// wrong width. NewSchema has checked the column names.
func (r *Relation) Validate() error {
	if r.Schema == nil {
		return fmt.Errorf("relation: no schema")
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Schema.Cols) {
			return fmt.Errorf("relation: row %d has %d values, schema %s has %d columns",
				i, len(row), r.Schema, len(r.Schema.Cols))
		}
	}
	return nil
}

// MakeRows returns n empty rows of capacity w carved out of one backing
// array: filling them with append costs two allocations for the whole
// result instead of one per row, and each row is capped at w so a row
// that outgrows its width moves away instead of reaching into the next.
func MakeRows(n, w int) []Row {
	backing := make([]value.V, n*w)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = backing[i*w : i*w : (i+1)*w]
	}
	return rows
}

// Clone returns a deep-enough copy: the row slice and each row are copied
// (values themselves are immutable).
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema, Rows: make([]Row, len(r.Rows))}
	for i, row := range r.Rows {
		nr := make(Row, len(row))
		copy(nr, row)
		out.Rows[i] = nr
	}
	return out
}

// RowKey builds a composite map key from the row values at positions idx.
// It allocates a string per call; the hash-grouping paths use HashRow plus
// a value.Equal collision check instead and keep RowKey only where a
// printable key is genuinely needed.
func RowKey(row Row, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(row[i].Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// HashRow folds the row values at positions idx into one 64-bit hash.
// Rows whose projected values are pairwise Equal hash identically (the
// same equivalence classes as RowKey), so it can replace RowKey-keyed
// maps when paired with a KeysEqual collision check.
func HashRow(row Row, idx []int) uint64 {
	h := value.HashSeed
	for _, i := range idx {
		h = value.UpdateHash(h, row[i])
	}
	return h
}

// KeysEqual reports whether two rows agree on the projected key columns,
// using the same equivalence as RowKey: SameKey on every column.
func KeysEqual(a Row, aIdx []int, b Row, bIdx []int) bool {
	for i := range aIdx {
		if !SameKey(a[aIdx[i]], b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// SameKey reports whether a.Key() == b.Key() without building either
// string: NULL matches only NULL, ints, bools and integral floats match by
// their int64 form, NaN matches only NaN, and any other float or string
// matches only itself.
func SameKey(a, b value.V) bool {
	ai, aInt := integralKey(a)
	bi, bInt := integralKey(b)
	if aInt || bInt {
		return aInt && bInt && ai == bi
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case value.KindFloat:
		af, bf := a.Float(), b.Float()
		return af == bf || (af != af && bf != bf)
	case value.KindString:
		return a.S == b.S
	}
	return true
}

// integralKey is value.V.Key's integral class: the int64 a value's key
// renders, for ints, bools and in-range integral floats.
func integralKey(v value.V) (int64, bool) {
	switch v.K {
	case value.KindBool, value.KindInt:
		return v.Int(), true
	case value.KindFloat:
		if f := v.Float(); f == math.Trunc(f) && !math.IsInf(f, 0) &&
			f >= math.MinInt64 && f <= math.MaxInt64 {
			return int64(f), true
		}
	}
	return 0, false
}

// Project returns the named columns of every row, in row order; unlike
// DistinctProject it keeps duplicates.
func (r *Relation) Project(names []string) (*Relation, error) {
	ps, idx, err := r.Schema.Project(names)
	if err != nil {
		return nil, err
	}
	out := New(ps)
	out.Rows = MakeRows(len(r.Rows), len(idx))
	for i, row := range r.Rows {
		for _, p := range idx {
			out.Rows[i] = append(out.Rows[i], row[p])
		}
	}
	return out, nil
}

// DistinctProject computes the set projection π_names(r): the named columns
// with duplicate rows removed, preserving first-seen order. Grouping is by
// 64-bit row hash with a value-equality check on collisions, avoiding the
// per-row key-string allocation of the RowKey path.
func (r *Relation) DistinctProject(names []string) (*Relation, error) {
	ps, idx, err := r.Schema.Project(names)
	if err != nil {
		return nil, err
	}
	out := New(ps)
	outIdx := make([]int, len(idx))
	for i := range outIdx {
		outIdx[i] = i
	}
	// The index grows with the distinct output, not the input: a
	// low-cardinality projection of a large relation must not pay for a
	// table sized to it.
	var seen KeyIndex
	var row Row
	kept := func(pos int) bool { return KeysEqual(row, idx, out.Rows[pos], outIdx) }
	for _, row = range r.Rows {
		h := HashRow(row, idx)
		if _, dup := seen.Find(h, kept); dup {
			continue
		}
		seen.Add(h, len(out.Rows))
		nr := make(Row, len(idx))
		for i, p := range idx {
			nr[i] = row[p]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// KeyIndex maps a composite key to the position of the one entry holding
// it in a growing list: positions are bucketed by key hash, chained on
// collision and verified by the caller's equality (KeysEqual on rows,
// its lane equivalent on a columnar batch), so no key string is built per
// row. It is the one place that decides which entry a key resolves to for
// DistinctProject, the coordinator's merge, the vec distinct kernel and
// the GMDJ equi probe.
// Positions must be added in order, 0, 1, 2, ... The zero value is an
// empty index.
type KeyIndex struct {
	heads map[uint64]int32 // hash → latest position with that hash
	next  []int32          // next[pos] → previous position with the same hash, -1 at the end
}

// Reserve sizes an empty index for n positions up front.
func (ix *KeyIndex) Reserve(n int) {
	ix.heads = make(map[uint64]int32, n)
	ix.next = make([]int32, 0, n)
}

// Add indexes position pos — the next unindexed one — under hash.
func (ix *KeyIndex) Add(hash uint64, pos int) {
	if ix.heads == nil {
		ix.heads = make(map[uint64]int32)
	}
	head, ok := ix.heads[hash]
	if !ok {
		head = -1
	}
	ix.next = append(ix.next, head)
	ix.heads[hash] = int32(pos)
}

// Find returns the position, among those indexed under hash, for which eq
// reports that the entry holds the probed key. At most one can: a key is
// only added after Find missed it.
func (ix *KeyIndex) Find(hash uint64, eq func(pos int) bool) (int, bool) {
	pos, ok := ix.heads[hash]
	for ok {
		if eq(int(pos)) {
			return int(pos), true
		}
		pos = ix.next[pos]
		ok = pos >= 0
	}
	return 0, false
}

// Union appends all rows of t to r (multiset union). Schemas must match.
func (r *Relation) Union(t *Relation) error {
	if !r.Schema.Equal(t.Schema) {
		return fmt.Errorf("relation: union schema mismatch: %s vs %s", r.Schema, t.Schema)
	}
	r.Rows = append(r.Rows, t.Rows...)
	return nil
}

// SortKey names a sort column and its direction.
type SortKey struct {
	Name string
	Desc bool
}

// SortBy sorts rows in place by the named columns ascending. It is used to
// produce deterministic output for display and testing.
func (r *Relation) SortBy(names ...string) error {
	keys := make([]SortKey, len(names))
	for i, n := range names {
		keys[i] = SortKey{Name: n}
	}
	return r.SortKeys(keys...)
}

// SortKeys sorts rows in place by the given keys, honoring per-key
// direction. NULLs sort first ascending (last descending). It is stable:
// it sorts row indexes, ties by index, then moves each row once.
func (r *Relation) SortKeys(keys ...SortKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		p, err := r.Schema.MustLookup(k.Name)
		if err != nil {
			return err
		}
		idx[i] = p
	}
	perm := make([]int32, len(r.Rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ra, rb := r.Rows[a], r.Rows[b]
		for i, p := range idx {
			c, err := value.Compare(ra[p], rb[p])
			if err != nil {
				if value.Less(ra[p], rb[p]) {
					c = -1
				} else if value.Less(rb[p], ra[p]) {
					c = 1
				}
			}
			if c != 0 {
				if keys[i].Desc {
					return -c
				}
				return c
			}
		}
		return int(a) - int(b)
	})
	// Row i takes row perm[i]: follow each cycle once, making every
	// position it fills a fixed point of perm.
	for i := range perm {
		row, j := r.Rows[i], i
		for k := int(perm[j]); k != i; k = int(perm[j]) {
			r.Rows[j], perm[j], j = r.Rows[k], int32(j), k
		}
		r.Rows[j], perm[j] = row, int32(j)
	}
	return nil
}

// String renders the relation as an aligned text table (for examples and
// debugging); long relations are truncated.
func (r *Relation) String() string { return r.Format(20) }

// Format renders up to maxRows rows as an aligned text table.
func (r *Relation) Format(maxRows int) string {
	names := r.Schema.Names()
	width := make([]int, len(names))
	for i, n := range names {
		width[i] = len(n)
	}
	n := len(r.Rows)
	shown := n
	if maxRows >= 0 && shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for i := 0; i < shown; i++ {
		row := r.Rows[i]
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			cells[i][j] = s
			if len(s) > width[j] {
				width[j] = len(s)
			}
		}
	}
	var b strings.Builder
	for j, nm := range names {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", width[j], nm)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, c := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[j], c)
		}
		b.WriteByte('\n')
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-shown)
	}
	return b.String()
}
