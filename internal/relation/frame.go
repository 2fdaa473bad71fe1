package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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

// laneMode returns the mode column j of rows is encoded in.
func laneMode(rows []Row, j int) byte {
	var l laneShape
	for _, row := range rows {
		l.add(row[j].K, row[j].S != "")
	}
	return l.mode()
}

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
// non-NULL string, the encoding of s reuses: their common prefix, or none
// when s has bytes of its own and would unfold into more than
// maxStringExpansion bytes per byte it costs.
func sharedPrefix[S ~string | ~[]byte](prev, s S) int {
	p := 0
	for p < len(prev) && p < len(s) && prev[p] == s[p] {
		p++
	}
	var tmp [binary.MaxVarintLen64]byte
	rest := len(s) - p
	cost := binary.PutUvarint(tmp[:], uint64(p)) + binary.PutUvarint(tmp[:], uint64(rest)) + rest
	if rest > 0 && len(s) > maxStringExpansion*cost {
		return 0
	}
	return p
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// allSet returns a bitmap byte with its first min(rows, 8) bits set.
func allSet(rows int) byte { return byte(1<<min(rows, 8) - 1) }

// AppendFrame appends the frame of r to dst. r must pass Validate.
func AppendFrame(dst []byte, r *Relation) []byte {
	dst = binary.AppendUvarint(append(dst, FrameVersion), uint64(len(r.Schema.Cols)))
	for _, c := range r.Schema.Cols {
		dst = append(appendString(dst, c.Name), byte(c.Kind))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Rows)))
	for i := 0; len(r.Schema.Cols) == 0 && i < len(r.Rows); i += 8 {
		dst = append(dst, allSet(len(r.Rows)-i))
	}
	for j := 0; len(r.Rows) > 0 && j < len(r.Schema.Cols); j++ {
		mode := laneMode(r.Rows, j)
		dst = append(dst, mode)
		if mode&laneNulls != 0 {
			at := len(dst)
			dst = append(dst, make([]byte, (len(r.Rows)+7)/8)...)
			for i, row := range r.Rows {
				if !row[j].IsNull() {
					dst[at+i/8] |= 1 << (i % 8)
				}
			}
		}
		prev := ""
		for _, row := range r.Rows {
			v := row[j]
			if mode == laneGeneric {
				dst = append(dst, byte(v.K))
			}
			if mode == laneGeneric || v.K == value.KindBool || v.K == value.KindInt {
				dst = binary.AppendVarint(dst, v.Int())
			}
			if mode == laneGeneric || v.K == value.KindFloat {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
			}
			if mode == laneGeneric {
				dst = appendString(dst, v.S)
			} else if v.K == value.KindString {
				p := sharedPrefix(prev, v.S)
				dst = appendString(binary.AppendUvarint(dst, uint64(p)), v.S[p:])
				prev = v.S
			}
		}
	}
	return dst
}

// ErrMalformed marks the relations gob cannot carry: on encoding, one that
// fails Validate; on decoding, bytes ReadFrame refuses. gob reports either
// only once the whole message is consumed or before any of it is written,
// so a stream that reports it is still in sync.
var ErrMalformed = errors.New("malformed relation")

// frameBufs holds the buffers GobEncode builds frames in.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// GobEncode makes a relation's gob encoding its frame. The frame is built
// in a pooled buffer and returned as one exact-size copy, which gob copies
// again into its message.
func (r *Relation) GobEncode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	buf := frameBufs.Get().(*[]byte)
	*buf = AppendFrame((*buf)[:0], r)
	out := bytes.Clone(*buf)
	frameBufs.Put(buf)
	return out, nil
}

// GobDecode sets r to the relation a frame carries.
func (r *Relation) GobDecode(b []byte) error {
	fr, err := ReadFrame(b)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	*r = *fr
	return nil
}

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
	var prev, cur []byte // scratch for unfolding strings
	for j := 0; n > 0 && j < w; j++ {
		f.lanes[j] = d.lane(f.n, j, &budget, &prev, &cur)
	}
	if d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	return f, nil
}

// Len returns the number of rows.
func (f *Frame) Len() int { return f.n }

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

// GobDecode sets f to a copy of the frame b holds, which gob may reuse.
func (f *Frame) GobDecode(b []byte) error {
	fr, err := DecodeFrame(bytes.Clone(b))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	*f = *fr
	return nil
}

// frameReader walks a frame. Like encoding/gob's decoder it reports a bad
// frame by panicking with a frameError, for DecodeFrame to recover.
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
func (d *frameReader) lane(n, j int, budget *int, prev, cur *[]byte) frameLane {
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
		l.strs = d.strings(n, l.bm, budget, prev, cur)
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
// values unfold into. It unfolds each value into one of the two buffers
// *prev and *cur, over the one before it in the other, so a value with no
// bytes of its own is a prefix of the previous one.
func (d *frameReader) strings(n int, bm []byte, budget *int, prev, cur *[]byte) int {
	total := 0
	*prev = (*prev)[:0]
	for i := 0; i < n; i++ {
		if !present(bm, i) {
			continue
		}
		p, rest := d.uvarint(), d.str()
		if p > uint64(len(*prev)) {
			d.fail("prefix %d of a %d-byte string", p, len(*prev))
		}
		*cur = append(append((*cur)[:0], (*prev)[:p]...), rest...)
		if len(rest) > 0 {
			if total += len(*cur); total > *budget {
				d.fail("strings unfold to over %d bytes per frame byte", maxStringExpansion)
			}
			if uint64(sharedPrefix(*prev, *cur)) != p {
				d.fail("string %d not front-coded on its shared prefix", i)
			}
		}
		*prev, *cur = *cur, *prev
	}
	*budget -= total
	return total
}
