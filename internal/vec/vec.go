// Package vec implements the columnar batch layer of the Skalla engine:
// typed column vectors with null bitmaps, a Batch carrying a
// relation.Schema, conversion shims to and from the row representation,
// and compiled column-programs that evaluate expr conditions over
// selections instead of per-row Eval calls.
//
// The row code in internal/gmdj stays the reference implementation; the
// vectorized kernels here replicate its value semantics exactly (null
// handling, short-circuit and CASE laziness, integer overflow wrap, float
// accumulation order), so the two are byte-exact on success and agree on
// error presence. The kernels cover the whole expression language; the
// one thing they refuse is a relation whose values violate its declared
// column kinds (FromRelation), and that is an error, not a slower path.
package vec

import (
	"fmt"
	"sync"

	"repro/internal/relation"
	"repro/internal/value"
)

// Bitmap is a fixed-length bitmap; bit i tracks lane i of a column or
// selection. The zero value is an empty bitmap of length 0.
type Bitmap struct {
	n    int
	bits []uint64
}

// NewBitmap returns an all-zero bitmap of n lanes.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{n: n, bits: make([]uint64, (n+63)/64)}
}

// Len returns the number of lanes.
func (m *Bitmap) Len() int { return m.n }

// Get reports whether bit i is set.
func (m *Bitmap) Get(i int) bool { return m.bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (m *Bitmap) Set(i int) { m.bits[i>>6] |= 1 << (uint(i) & 63) }

// Col is one typed column vector. Exactly one payload slice is populated,
// selected by Kind: Ints for KindInt and KindBool (0/1), Floats for
// KindFloat, Codes+Dict for dictionary-encoded KindString. Nulls, when
// non-nil, marks NULL lanes (their payload entries are zero values).
type Col struct {
	Kind   value.Kind
	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string
	Nulls  *Bitmap
}

// Len returns the number of lanes in the column.
func (c *Col) Len() int {
	switch c.Kind {
	case value.KindFloat:
		return len(c.Floats)
	case value.KindString:
		return len(c.Codes)
	default:
		return len(c.Ints)
	}
}

// IsNull reports whether lane i is NULL.
func (c *Col) IsNull(i int) bool { return c.Nulls != nil && c.Nulls.Get(i) }

// Value boxes lane i back into a value.V. It allocates nothing: string
// lanes share the dictionary backing.
func (c *Col) Value(i int) value.V {
	if c.IsNull(i) {
		return value.Null
	}
	switch c.Kind {
	case value.KindBool:
		return value.NewBool(c.Ints[i] != 0)
	case value.KindInt:
		return value.NewInt(c.Ints[i])
	case value.KindFloat:
		return value.NewFloat(c.Floats[i])
	case value.KindString:
		return value.NewString(c.Dict[c.Codes[i]])
	default:
		return value.Null
	}
}

// Batch is a column-major slice of a relation: a schema plus one Col per
// schema column, all of the same lane count.
type Batch struct {
	Schema    *relation.Schema
	Cols      []Col
	n         int
	clustered []bool // the columns a view (Grouping.View) holds; nil outside views

	allOnce sync.Once
	all     []int32 // see identity

	groupMu sync.Mutex
	// groupings are the batch's Groupings, one per key-column list, found
	// by comparing lists; entries are immutable once stored, so concurrent
	// kernels share them outside the lock.
	//
	//lint:guarded-by groupMu
	groupings []*Grouping
}

// Len returns the number of rows (lanes) in the batch.
func (b *Batch) Len() int { return b.n }

// Sel is a selection of lanes, in order, that carries its proof: every
// entry indexes one of the n lanes of the batch it was made for. Only
// AllLanes, Grouping.Find, Filter and Distinct make one, from lanes they
// know to be in range, and Select from a caller's lanes, checking each; so
// a kernel handed one checks in O(1) that it was made for a batch of its
// length (owns) instead of walking its lanes.
type Sel struct {
	lanes []int32
	n     int
}

// Len returns the number of selected lanes.
func (s Sel) Len() int { return len(s.lanes) }

// AllLanes returns the identity selection: every lane, in scan order.
func (b *Batch) AllLanes() Sel { return Sel{lanes: b.identity(), n: b.n} }

// identity returns the lanes 0..n-1, built on first use and shared by every
// selection of them and by the batch's views; nothing writes to it.
func (b *Batch) identity() []int32 {
	b.allOnce.Do(func() {
		b.all = make([]int32, b.n)
		for i := range b.all {
			b.all[i] = int32(i)
		}
	})
	return b.all
}

// Select is the checked constructor of a selection of b from a caller's
// lanes, which it copies: every entry must index a lane of b.
func (b *Batch) Select(lanes []int32) (Sel, error) {
	for _, s := range lanes {
		if uint(s) >= uint(b.n) {
			return Sel{}, fmt.Errorf("vec: selection lane %d out of range [0,%d)", s, b.n)
		}
	}
	return Sel{lanes: append([]int32(nil), lanes...), n: b.n}, nil
}

// owns checks that sel was made for a batch of b's length.
func (b *Batch) owns(sel Sel) error {
	if sel.n != b.n {
		return fmt.Errorf("vec: selection made for a batch of %d lanes, batch has %d", sel.n, b.n)
	}
	return nil
}

// Check validates the structural invariants of the batch: one column per
// schema column, every payload and null bitmap of the batch's lane count.
// Exported kernels call it before touching payloads.
func (b *Batch) Check() error {
	if b.Schema == nil {
		return fmt.Errorf("vec: batch has no schema")
	}
	if len(b.Cols) != b.Schema.Len() {
		return fmt.Errorf("vec: batch has %d columns, schema %s has %d",
			len(b.Cols), b.Schema, b.Schema.Len())
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		if b.clustered != nil && !b.clustered[i] {
			continue
		}
		if got := c.Len(); got != b.n {
			return fmt.Errorf("vec: column %d (%s) has %d lanes, batch has %d",
				i, b.Schema.Cols[i].Name, got, b.n)
		}
		if c.Nulls != nil && c.Nulls.Len() != b.n {
			return fmt.Errorf("vec: column %d (%s) null bitmap has %d lanes, batch has %d",
				i, b.Schema.Cols[i].Name, c.Nulls.Len(), b.n)
		}
		if c.Kind != b.Schema.Cols[i].Kind {
			return fmt.Errorf("vec: column %d is %s, schema %s declares %s",
				i, c.Kind, b.Schema.Cols[i].Name, b.Schema.Cols[i].Kind)
		}
	}
	return nil
}

// run reports whether sel is identity()[lo:lo+len(sel)], returning lo: only a
// slice of the identity's array has its capacity end at the last entry.
func (b *Batch) run(sel []int32) (lo int, ok bool) {
	all := b.identity()
	c := cap(sel)
	if len(sel) == 0 || c > len(all) || &sel[:c][c-1] != &all[len(all)-1] {
		return 0, false
	}
	return len(all) - c, true
}

// checkRead validates that the lanes sel selects of the columns cols can
// be read: the batch is well formed, sel was made for it, and it holds
// every column.
func (b *Batch) checkRead(cols []int, sel Sel) error {
	if err := b.Check(); err != nil {
		return err
	}
	if err := b.owns(sel); err != nil {
		return err
	}
	for _, ci := range cols {
		if err := b.checkCol(ci); err != nil {
			return err
		}
	}
	return nil
}

// checkCol validates that ci names a column the batch holds lanes for.
func (b *Batch) checkCol(ci int) error {
	if ci < 0 || ci >= len(b.Cols) {
		return fmt.Errorf("vec: column %d out of range", ci)
	}
	if b.clustered != nil && !b.clustered[ci] {
		return fmt.Errorf("vec: column %s is not in the clustered view", b.Schema.Cols[ci].Name)
	}
	return nil
}

// FromRelation converts a row relation into a batch. The conversion is
// strict: every row as wide as the schema, every value NULL or of its
// column's declared kind (a column declared KindNull accepts only NULLs);
// the error names the first row, or column, kinds and row, that breaks it.
func FromRelation(r *relation.Relation) (*Batch, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	n := len(r.Rows)
	b := &Batch{Schema: r.Schema, Cols: make([]Col, r.Schema.Len()), n: n}
	for ci, sc := range r.Schema.Cols {
		col := &b.Cols[ci]
		col.Kind = sc.Kind
		var dict map[string]int32
		switch sc.Kind {
		case value.KindInt, value.KindBool:
			col.Ints = make([]int64, n)
		case value.KindFloat:
			col.Floats = make([]float64, n)
		case value.KindString:
			col.Codes = make([]int32, n)
			dict = make(map[string]int32)
		case value.KindNull:
			col.Ints = make([]int64, n)
		default:
			return nil, fmt.Errorf("column %s has unknown kind %s", sc.Name, sc.Kind)
		}
		for i, row := range r.Rows {
			v := row[ci]
			if v.IsNull() {
				if col.Nulls == nil {
					col.Nulls = NewBitmap(n)
				}
				col.Nulls.Set(i)
				continue
			}
			if v.K != sc.Kind {
				return nil, fmt.Errorf("column %s declared %s holds %s at row %d", sc.Name, sc.Kind, v.K, i)
			}
			switch sc.Kind {
			case value.KindInt, value.KindBool:
				col.Ints[i] = v.Int()
			case value.KindFloat:
				col.Floats[i] = v.Float()
			case value.KindString:
				code, ok := dict[v.S]
				if !ok {
					code = int32(len(col.Dict))
					col.Dict = append(col.Dict, v.S)
					dict[v.S] = code
				}
				col.Codes[i] = code
			}
		}
	}
	return b, nil
}

// ToRelation converts a batch back into a row relation — the reverse half
// of the migration shim, used by snapshots and row-API consumers.
func ToRelation(b *Batch) (*relation.Relation, error) {
	if err := b.checkRead(b.Schema.Indexes(), b.AllLanes()); err != nil {
		return nil, err
	}
	rows := relation.MakeRows(b.n, len(b.Cols))
	for i := range rows {
		for ci := range b.Cols {
			rows[i] = append(rows[i], b.Cols[ci].Value(i))
		}
	}
	return &relation.Relation{Schema: b.Schema, Rows: rows}, nil
}

// FrameLanes returns the selected lanes of the given columns as the lane
// sources of a frame (relation.EncodeFrame), in selection order: the
// selected rows of those columns, read from the columns in place.
func FrameLanes(b *Batch, cols []int, sel Sel) ([]relation.LaneSource, error) {
	if err := b.checkRead(cols, sel); err != nil {
		return nil, err
	}
	ls, lanes := make([]selLane, len(cols)), make([]relation.LaneSource, len(cols))
	for j, ci := range cols {
		ls[j] = selLane{&b.Cols[ci], sel.lanes}
		lanes[j] = &ls[j]
	}
	return lanes, nil
}

// selLane is a column at a selection as a lane source.
type selLane struct {
	col   *Col
	lanes []int32
}

func (l *selLane) Values(dst []value.V, from int, _ bool) {
	for k, lane := range l.lanes[from : from+len(dst)] {
		dst[k] = l.col.Value(int(lane))
	}
}

// hashLanes returns, for each lane, the chained value hash of the key
// columns — the same chain relation.HashRow produces for the corresponding
// row, so batch-side groupings and row-side probes agree.
func hashLanes(b *Batch, cols []int) ([]uint64, error) {
	for _, ci := range cols {
		if err := b.checkCol(ci); err != nil {
			return nil, err
		}
	}
	dst := make([]uint64, b.n)
	// Single string key column: hash each dictionary entry once.
	if len(cols) == 1 && b.Cols[cols[0]].Kind == value.KindString {
		c := &b.Cols[cols[0]]
		dictHash := make([]uint64, len(c.Dict))
		for di, s := range c.Dict {
			dictHash[di] = value.UpdateHash(value.HashSeed, value.NewString(s))
		}
		nullHash := value.UpdateHash(value.HashSeed, value.Null)
		for lane := range dst {
			if c.IsNull(lane) {
				dst[lane] = nullHash
			} else {
				dst[lane] = dictHash[c.Codes[lane]]
			}
		}
		return dst, nil
	}
	for lane := range dst {
		h := value.HashSeed
		for _, ci := range cols {
			h = value.UpdateHash(h, b.Cols[ci].Value(lane))
		}
		dst[lane] = h
	}
	return dst, nil
}
