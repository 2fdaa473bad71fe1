package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/value"
)

// FrameVersion is the version byte of the frames AppendFrame writes, and the
// only one ReadFrame reads.
const FrameVersion = 1

// A frame carries a relation column by column, one lane per column
// (PROTOCOL.md, "Framing and encoding", has the layout byte by byte). A
// typed lane's mode is the one known kind its values share, plus laneNulls
// and a bitmap of the non-NULL rows when some are NULL; a generic lane
// carries each value's kind, an I and an F slot (its payload in the one its
// kind reads, zero in the other) and its string. ReadFrame accepts only
// what AppendFrame writes, so a decoded frame re-encodes to the same bytes.
const (
	laneGeneric byte = 0
	laneNulls   byte = 0x80

	// maxStringExpansion bounds the bytes front-coded strings unfold into
	// per byte of frame, which keeps ReadFrame's allocation linear.
	maxStringExpansion = 64
)

// laneShape gathers, value by value, the mode a lane is encoded in.
type laneShape struct {
	kind    value.Kind
	nulls   byte // laneNulls once a NULL is seen
	generic bool
}

// add takes a value of kind k, with a string if hasS. An unknown kind, a
// string under another kind or a second known kind makes the lane generic.
func (l *laneShape) add(k value.Kind, hasS bool) {
	l.generic = l.generic || k > value.KindString || hasS && k != value.KindString || k != value.KindNull && l.kind != value.KindNull && k != l.kind
	if k == value.KindNull {
		l.nulls = laneNulls
	} else {
		l.kind = k
	}
}

func (l *laneShape) mode() byte {
	if l.generic {
		return laneGeneric
	}
	return byte(l.kind) | l.nulls
}

// sharedPrefix returns how many leading bytes of prev, the lane's previous
// non-NULL string, the encoding of s reuses (frontPrefix).
func sharedPrefix[S ~string | ~[]byte](prev, s S) int {
	return frontPrefix(commonPrefix(prev, s), len(s))
}

// commonPrefix returns the length of the common prefix of a and b.
func commonPrefix[S ~string | ~[]byte](a, b S) int {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	return p
}

// frontPrefix returns the prefix an n-byte string that shares p leading
// bytes with the previous one is front-coded on: p, or none when the string
// has bytes of its own and would unfold into more than maxStringExpansion
// bytes per byte it costs.
func frontPrefix(p, n int) int {
	rest := n - p
	if cost := uvarintLen(p) + uvarintLen(rest) + rest; rest > 0 && n > maxStringExpansion*cost {
		return 0
	}
	return p
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// allSet returns a bitmap byte with its first min(rows, 8) bits set.
func allSet(rows int) byte { return byte(1<<min(rows, 8) - 1) }

// A LaneSource is one column of a frame being encoded (EncodeFrame), read
// a run of source rows at a time.
type LaneSource interface {
	// Values sets dst[k] to the value of source row from+k. With kindsOnly
	// set the encoder is picking the lane's mode: a value needs only its
	// kind and, unless it is a STRING, its string, so a source may skip
	// building the rest.
	Values(dst []value.V, from int, kindsOnly bool)
}

// A TypedLane is a lane source that can also hand its values over as typed
// runs, so a lane whose kept rows share one kind is written with no value
// boxed. The bytes are those Values would have the encoder write.
type TypedLane interface {
	LaneSource
	// Shape reports the mode of the kept source rows [0, n) (kept as in
	// EncodeFrame): the one kind their non-NULL values share (KindNull when
	// every row is NULL) and whether some row is NULL. ok is false when
	// the rows have no typed run form, and the encoder reads Values.
	Shape(n int, kept []byte) (k value.Kind, nulls, ok bool)
	// Ints sets ints[k] to the payload of source row from+k of an INT or
	// BOOL lane (value.V.Int) and valid[k] to whether that row is not NULL.
	Ints(ints []int64, valid []bool, from int)
	// Floats is Ints for a FLOAT lane.
	Floats(floats []float64, valid []bool, from int)
}

// rowLane is column col of rows as a lane source.
type rowLane struct {
	rows []Row
	col  int
}

func (l *rowLane) Values(dst []value.V, from int, _ bool) {
	for k, row := range l.rows[from : from+len(dst)] {
		dst[k] = row[l.col]
	}
}

// RowLanes returns the columns cols of rows, in that order, as lane
// sources: a frame of those columns reads them in place, with no
// projected copy of the rows.
func RowLanes(rows []Row, cols []int) []LaneSource {
	ls, lanes := make([]rowLane, len(cols)), make([]LaneSource, len(cols))
	for j, col := range cols {
		ls[j] = rowLane{rows, col}
		lanes[j] = &ls[j]
	}
	return lanes
}

// AppendFrame appends the frame of r to dst. r must pass Validate.
func AppendFrame(dst []byte, r *Relation) []byte {
	return append(dst, EncodeFrame(r.Schema, len(r.Rows), nil, RowLanes(r.Rows, r.Schema.Indexes())).b...)
}

// FrameOf returns the frame of r, refusing one that fails Validate.
func FrameOf(r *Relation) (*Frame, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	return EncodeFrame(r.Schema, len(r.Rows), nil, RowLanes(r.Rows, r.Schema.Indexes())), nil
}

// EncodeFrame frames the source rows [0, n) that kept marks, in order (bit
// i%8 of byte i/8 marks row i; nil marks every row), column j read from
// lanes[j]. It records each lane as it writes it, so the frame reads
// without DecodeFrame's checking pass. The frame is built in a pooled
// buffer and owns one exact-size copy of it.
func EncodeFrame(schema *Schema, n int, kept []byte, lanes []LaneSource) *Frame {
	f := &Frame{Schema: schema, lanes: make([]frameLane, len(lanes))}
	for i := 0; i < n; i++ {
		if present(kept, i) {
			f.n++
		}
	}
	sc := frameBufs.Get().(*frameScratch)
	dst := binary.AppendUvarint(append(sc.b[:0], FrameVersion), uint64(len(schema.Cols)))
	for _, c := range schema.Cols {
		dst = append(appendString(dst, c.Name), byte(c.Kind))
	}
	dst = binary.AppendUvarint(dst, uint64(f.n))
	for i := 0; len(schema.Cols) == 0 && i < f.n; i += 8 {
		dst = append(dst, allSet(f.n-i))
	}
	for j := 0; f.n > 0 && j < len(lanes); j++ {
		dst, f.lanes[j] = appendLane(dst, lanes[j], n, f.n, kept, sc)
	}
	f.b, sc.b = bytes.Clone(dst), dst
	frameBufs.Put(sc)
	for j := range f.lanes {
		if l := &f.lanes[j]; l.mode&laneNulls != 0 {
			l.bm = f.b[l.off-(f.n+7)/8 : l.off] // the bitmap precedes the values
		}
	}
	return f
}

// appendLane appends the lane of src's kept rows, rows of them: its mode,
// which one pass over the kinds picks (or a typed source's Shape reports),
// then the bitmap of its non-NULL rows if some are NULL, filled as one pass
// over the values writes them. It reads src a run of sc's values at a time.
func appendLane(dst []byte, src LaneSource, n, rows int, kept []byte, sc *frameScratch) ([]byte, frameLane) {
	if t, ok := src.(TypedLane); ok {
		if k, nulls, ok := t.Shape(n, kept); ok {
			return appendTyped(dst, t, k, nulls, n, rows, kept, sc)
		}
	}
	run := sc.run[:]
	var shape laneShape
	for from := 0; from < n; from += len(run) {
		vals := run[:min(len(run), n-from)]
		src.Values(vals, from, true)
		for k, v := range vals {
			if present(kept, from+k) {
				shape.add(v.K, v.S != "")
			}
		}
	}
	l := frameLane{mode: shape.mode()}
	kind := value.Kind(l.mode &^ laneNulls)
	dst = append(dst, l.mode)
	bm := len(dst)
	if l.mode&laneNulls != 0 {
		dst = append(dst, make([]byte, (rows+7)/8)...)
	}
	l.off = len(dst)
	prev, r := "", 0
	for from := 0; from < n; from += len(run) {
		vals := run[:min(len(run), n-from)]
		src.Values(vals, from, false)
		for k, v := range vals {
			if !present(kept, from+k) {
				continue
			}
			if l.mode&laneNulls != 0 && !v.IsNull() {
				dst[bm+r/8] |= 1 << (r % 8)
			}
			r++
			switch {
			case l.mode == laneGeneric:
				dst = binary.AppendVarint(append(dst, byte(v.K)), v.Int())
				dst = appendString(binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float())), v.S)
			case v.IsNull():
			case kind == value.KindFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
			case kind == value.KindString:
				p := sharedPrefix(prev, v.S)
				if p < len(v.S) {
					l.strs += len(v.S)
				}
				dst = appendString(binary.AppendUvarint(dst, uint64(p)), v.S[p:])
				prev = v.S
			default:
				dst = binary.AppendVarint(dst, v.Int())
			}
		}
	}
	return dst, l
}

// appendTyped is appendLane for a typed source whose kept rows have kind k,
// some of them NULL if nulls: it writes each payload from src's typed runs.
func appendTyped(dst []byte, src TypedLane, k value.Kind, nulls bool, n, rows int, kept []byte, sc *frameScratch) ([]byte, frameLane) {
	shape := laneShape{kind: k}
	if nulls {
		shape.nulls = laneNulls
	}
	l := frameLane{mode: shape.mode()}
	dst = append(dst, l.mode)
	bm := len(dst)
	if nulls {
		dst = append(dst, make([]byte, (rows+7)/8)...)
	}
	l.off = len(dst)
	r := 0
	for from := 0; from < n; from += len(sc.valid) {
		valid := sc.valid[:min(len(sc.valid), n-from)]
		switch k {
		case value.KindNull:
			clear(valid)
		case value.KindFloat:
			src.Floats(sc.floats[:len(valid)], valid, from)
		default:
			src.Ints(sc.ints[:len(valid)], valid, from)
		}
		for i, ok := range valid {
			if !present(kept, from+i) {
				continue
			}
			switch {
			case !ok:
			case k == value.KindFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sc.floats[i]))
			default:
				dst = binary.AppendVarint(dst, sc.ints[i])
			}
			if ok && nulls {
				dst[bm+r/8] |= 1 << (r % 8)
			}
			r++
		}
	}
	return dst, l
}

// ErrMalformed marks the relations that have no frame: on encoding, one
// that fails Validate; on decoding, bytes DecodeFrame refuses.
var ErrMalformed = errors.New("malformed relation")

// frameScratch is what EncodeFrame builds a frame in: its bytes, and a run
// of values read from a lane, boxed or typed.
type frameScratch struct {
	b      []byte
	run    [64]value.V
	ints   [64]int64
	floats [64]float64
	valid  [64]bool
}

// frameBufs holds the scratch EncodeFrame builds frames in.
var frameBufs = sync.Pool{New: func() any { return new(frameScratch) }}

// ReadFrame decodes a frame from anywhere into a relation (Frame.Relation).
func ReadFrame(b []byte) (*Relation, error) {
	f, err := DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	return f.Relation(), nil
}

// Frame is a checked frame whose values stay in its bytes: its lanes are
// read on demand (Lane), or boxed into a relation all at once (Relation).
type Frame struct {
	Schema *Schema
	b      []byte
	n      int
	lanes  []frameLane // one per column
}

// frameLane is a lane's mode, its bitmap of non-NULL rows if any, where its
// values start, and the bytes a STRING lane's values unfold into.
type frameLane struct {
	mode byte
	bm   []byte
	off  int
	strs int
}

// DecodeFrame checks a frame from anywhere: it never panics and refuses
// what AppendFrame would not write, truncation and trailing bytes included.
// It boxes nothing, and its allocations do not grow with the rows. f keeps b.
func DecodeFrame(b []byte) (f *Frame, err error) {
	d := &frameReader{b: b}
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(frameError)
			if !ok {
				panic(p)
			}
			f, err = nil, fmt.Errorf("relation: frame at byte %d: %s", d.off, string(e))
		}
	}()
	if v := d.byte(); v != FrameVersion {
		d.fail("version %d, this build reads %d", v, FrameVersion)
	}
	cols := make([]Column, min(d.uvarint(), uint64(len(b)))) // a column takes 2+ bytes
	for i := range cols {
		cols[i] = Column{Name: string(d.str()), Kind: value.Kind(d.byte())}
	}
	n, w := d.uvarint(), len(cols)
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	// Every value, and every row of a relation without columns (a bitmap
	// of them stands in for the lanes), costs at least a bit.
	if limit := uint64(8 * len(b)); n > limit || w > 0 && n > limit/uint64(w) {
		d.fail("%d rows of %d columns", n, w)
	}
	f = &Frame{Schema: schema, b: b, n: int(n)}
	for i := 0; w == 0 && i < f.n; i += 8 {
		if d.byte() != allSet(f.n-i) {
			d.fail("row bitmap")
		}
	}
	f.lanes = make([]frameLane, w)
	budget := maxStringExpansion * len(b)
	var buf []byte // scratch for unfolding strings
	for j := 0; n > 0 && j < w; j++ {
		f.lanes[j] = d.lane(f.n, j, &budget, &buf)
	}
	if d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	return f, nil
}

// Len returns the number of rows.
func (f *Frame) Len() int { return f.n }

// Bytes returns the frame's encoding, which the frame keeps reading: the
// caller must not modify it.
func (f *Frame) Bytes() []byte { return f.b[:len(f.b):len(f.b)] }

// Lane calls fn with each row's value of column j, in row order, until fn
// fails. Values are built on the stack; a STRING lane's share one string.
func (f *Frame) Lane(j int, fn func(i int, v value.V) error) error {
	l := f.lanes[j]
	d := frameReader{b: f.b, off: l.off}
	kind := value.Kind(l.mode &^ laneNulls)
	var sb strings.Builder
	sb.Grow(l.strs)
	prev := ""
	for i := 0; i < f.n; i++ {
		var v value.V
		switch {
		case !present(l.bm, i):
		case l.mode == laneGeneric:
			v, _ = value.FromParts(value.Kind(d.byte()), d.varint(), d.float(), string(d.str()))
		case kind == value.KindFloat:
			v = value.NewFloat(d.float())
		case kind == value.KindString:
			p, rest := d.uvarint(), d.str()
			s := prev[:p]
			if len(rest) > 0 {
				at := sb.Len()
				sb.WriteString(s)
				sb.Write(rest)
				s = sb.String()[at:]
			}
			v, prev = value.NewString(s), s
		default:
			v, _ = value.FromParts(kind, d.varint(), 0, "")
		}
		if err := fn(i, v); err != nil {
			return err
		}
	}
	return nil
}

// LaneKind returns the kind of lane j's non-NULL values (KindNull when
// every row is NULL), and typed false for a generic lane, whose values do
// not share one kind.
func (f *Frame) LaneKind(j int) (k value.Kind, typed bool) {
	l := f.lanes[j]
	return value.Kind(l.mode &^ laneNulls), l.mode != laneGeneric
}

// Ints reads lane j, an INT or BOOL lane (LaneKind), into dst grown to
// Len() payloads (value.V.Int; 0 for a NULL row), and returns them with the
// lane's bitmap of non-NULL rows, nil when none is NULL. ok is false, and
// nothing read, for a lane of another mode.
func (f *Frame) Ints(j int, dst []int64) (vals []int64, bm []byte, ok bool) {
	l := f.lanes[j]
	if k := value.Kind(l.mode &^ laneNulls); l.mode == laneGeneric || k != value.KindInt && k != value.KindBool {
		return dst, nil, false
	}
	// The frame is checked: every varint is whole, in its minimal encoding.
	b, off := f.b, l.off
	vals = slices.Grow(dst[:0], f.n)[:f.n]
	for i := range vals {
		vals[i] = 0
		if !present(l.bm, i) {
			continue
		}
		ux, n := uint64(b[off]), 1
		if ux >= 0x80 {
			ux, n = binary.Uvarint(b[off:])
		}
		vals[i], off = int64(ux>>1)^-int64(ux&1), off+n
	}
	return vals, l.bm, true
}

// Floats is Ints for a FLOAT lane.
func (f *Frame) Floats(j int, dst []float64) (vals []float64, bm []byte, ok bool) {
	l := f.lanes[j]
	if l.mode&^laneNulls != byte(value.KindFloat) {
		return dst, nil, false
	}
	d := frameReader{b: f.b, off: l.off}
	vals = slices.Grow(dst[:0], f.n)[:f.n]
	for i := range vals {
		vals[i] = 0
		if present(l.bm, i) {
			vals[i] = d.float()
		}
	}
	return vals, l.bm, true
}

// Relation boxes the frame's values into rows sharing one value backing.
func (f *Frame) Relation() *Relation {
	return &Relation{Schema: f.Schema, Rows: f.Rows(nil, 0)}
}

// Rows boxes the columns cols of the frame (every column when cols is nil),
// in that order, into rows sharing one value backing, each with room for
// extra more values (MakeRows).
func (f *Frame) Rows(cols []int, extra int) []Row {
	if f.n == 0 {
		return nil
	}
	w := len(cols)
	if cols == nil {
		w = len(f.lanes)
	}
	rows := MakeRows(f.n, w+extra)
	for c := 0; c < w; c++ {
		j := c
		if cols != nil {
			j = cols[c]
		}
		f.Lane(j, func(i int, v value.V) error {
			rows[i] = append(rows[i], v)
			return nil
		})
	}
	return rows
}

// frameReader walks a frame. It reports a bad frame by panicking with a
// frameError, for DecodeFrame to recover.
type frameReader struct {
	b   []byte
	off int
}

type frameError string

func (d *frameReader) fail(format string, args ...any) {
	panic(frameError(fmt.Sprintf(format, args...)))
}

func (d *frameReader) bytes(n uint64) []byte {
	if n > uint64(len(d.b)-d.off) {
		d.fail("truncated")
	}
	d.off += int(n)
	return d.b[d.off-int(n) : d.off]
}

func (d *frameReader) byte() byte { return d.bytes(1)[0] }

// uvarint reads a varint in its one minimal encoding; one byte long, the
// common case, it is read without binary.Uvarint.
func (d *frameReader) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n == 0 {
		d.fail("truncated")
	}
	if n < 0 || n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("bad varint")
	}
	d.off += n
	return x
}

func (d *frameReader) varint() int64 {
	ux := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (d *frameReader) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.bytes(8)))
}

func (d *frameReader) str() []byte { return d.bytes(d.uvarint()) }

// present reports whether row i of a lane, with bitmap bm if any, is set.
func present(bm []byte, i int) bool { return bm == nil || bm[i/8]&(1<<(i%8)) != 0 }

// lane checks column j of n rows, spending budget on string bytes.
func (d *frameReader) lane(n, j int, budget *int, buf *[]byte) frameLane {
	l := frameLane{mode: d.byte()}
	kind := value.Kind(l.mode &^ laneNulls)
	if kind > value.KindString {
		d.fail("unknown lane mode %#x", l.mode)
	}
	if l.mode&laneNulls != 0 {
		l.bm = d.bytes(uint64(n+7) / 8)
		set := 0
		for _, c := range l.bm {
			set += bits.OnesCount8(c)
		}
		// Clear past the last row, and NULLs in the lane iff some are clear.
		if l.bm[len(l.bm)-1]>>((n-1)%8+1) != 0 || (kind == value.KindNull) != (set == 0) || set == n {
			d.fail("bitmap of lane mode %#x", l.mode)
		}
	}
	l.off = d.off
	if kind == value.KindString {
		l.strs = d.strings(n, l.bm, budget, buf)
		return l
	}
	var shape laneShape
	for i := 0; i < n; i++ {
		switch {
		case !present(l.bm, i):
		case l.mode == laneGeneric:
			k, x, f, s := value.Kind(d.byte()), d.varint(), d.float(), d.str()
			d.value(k, x, f)
			shape.add(k, len(s) > 0)
		case kind == value.KindFloat:
			d.float()
		case kind == value.KindInt: // every varint is some INT's payload
			d.varint()
		default:
			d.value(kind, d.varint(), 0)
		}
	}
	if l.mode == laneGeneric && shape.mode() != laneGeneric {
		d.fail("generic lane for column %d, whose values fit a typed one", j)
	}
	return l
}

// value fails on parts no value of kind k has.
func (d *frameReader) value(k value.Kind, i int64, f float64) {
	if _, ok := value.FromParts(k, i, f, ""); !ok {
		d.fail("no %s value has this payload", k)
	}
}

// strings checks a front-coded lane of n rows and returns the bytes its
// values unfold into. It unfolds each value in place over the one before it
// in *buf: a value is the previous one's first p bytes and then its own. A
// value with bytes of its own is canonical when p is the prefix it shares
// with the previous value (frontPrefix): most often the previous value has
// no byte p or its byte p is not the value's own first byte, and the shared
// prefix is p with no further comparison.
func (d *frameReader) strings(n int, bm []byte, budget *int, buf *[]byte) int {
	total, s := 0, (*buf)[:0]
	for i := 0; i < n; i++ {
		if !present(bm, i) {
			continue
		}
		p, rest := d.uvarint(), d.str()
		if p > uint64(len(s)) {
			d.fail("prefix %d of a %d-byte string", p, len(s))
		}
		if len(rest) > 0 {
			if total += int(p) + len(rest); total > *budget {
				d.fail("strings unfold to over %d bytes per frame byte", maxStringExpansion)
			}
			if frontPrefix(int(p)+commonPrefix(s[p:], rest), int(p)+len(rest)) != int(p) {
				d.fail("string %d not front-coded on its shared prefix", i)
			}
		}
		s = append(s[:p], rest...)
	}
	*buf = s
	*budget -= total
	return total
}
