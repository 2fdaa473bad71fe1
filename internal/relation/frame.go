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
	kind, nulls := value.KindNull, false
	for _, row := range rows {
		switch v := row[j]; {
		case v.K > value.KindString || v.S != "" && v.K != value.KindString:
			return laneGeneric // an unknown kind, or a string under another
		case v.K == value.KindNull:
			nulls = true
		case kind == value.KindNull:
			kind = v.K
		case v.K != kind:
			return laneGeneric
		}
	}
	if nulls {
		return byte(kind) | laneNulls
	}
	return byte(kind)
}

// sharedPrefix returns how many leading bytes of prev, the lane's previous
// non-NULL string, the encoding of s reuses: their common prefix, or none
// when s has bytes of its own and would unfold into more than
// maxStringExpansion bytes per byte it costs.
func sharedPrefix(prev, s string) int {
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

// ReadFrame decodes a frame from anywhere: it never panics, refuses what
// AppendFrame would not write (truncation and trailing bytes included) and
// allocates at most a constant times len(b). Every value, and every row of
// a relation without columns (a bitmap of them stands in for the lanes),
// costs at least a bit; all rows share one value backing, and each STRING
// lane's values one string.
func ReadFrame(b []byte) (r *Relation, err error) {
	d := &frameReader{b: b}
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(frameError)
			if !ok {
				panic(p)
			}
			r, err = nil, fmt.Errorf("relation: frame at byte %d: %s", d.off, string(e))
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
	if limit := uint64(8 * len(b)); n > limit || w > 0 && n > limit/uint64(w) {
		d.fail("%d rows of %d columns", n, w)
	}
	r = &Relation{Schema: schema}
	if n > 0 {
		vals := make([]value.V, int(n)*w)
		r.Rows = make([]Row, n)
		for i := range r.Rows {
			r.Rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
		}
	}
	for i := 0; w == 0 && i < len(r.Rows); i += 8 {
		if d.byte() != allSet(len(r.Rows)-i) {
			d.fail("row bitmap")
		}
	}
	budget := maxStringExpansion * len(b)
	for j := 0; n > 0 && j < w; j++ {
		d.lane(r.Rows, j, &budget)
	}
	if d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	return r, nil
}

// frameReader walks a frame. Like encoding/gob's decoder it reports a bad
// frame by panicking with a frameError, for ReadFrame to recover.
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

// uvarint reads a varint in its one minimal encoding.
func (d *frameReader) uvarint() uint64 {
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

// lane decodes column j of rows, spending budget on string bytes.
func (d *frameReader) lane(rows []Row, j int, budget *int) {
	mode := d.byte()
	kind := value.Kind(mode &^ laneNulls)
	if kind > value.KindString {
		d.fail("unknown lane mode %#x", mode)
	}
	var bm []byte
	if mode&laneNulls != 0 {
		bm = d.bytes(uint64(len(rows)+7) / 8)
		set := 0
		for _, c := range bm {
			set += bits.OnesCount8(c)
		}
		// Clear past the last row, and NULLs in the lane iff some are clear.
		if bm[len(bm)-1]>>((len(rows)-1)%8+1) != 0 || (kind == value.KindNull) != (set == 0) || set == len(rows) {
			d.fail("bitmap of lane mode %#x", mode)
		}
	}
	if kind == value.KindString {
		d.strings(rows, j, bm, budget)
		return
	}
	for i, row := range rows {
		switch {
		case !present(bm, i):
		case mode == laneGeneric:
			row[j] = d.value(value.Kind(d.byte()), d.varint(), d.float(), string(d.str()))
		case kind == value.KindFloat:
			row[j] = value.NewFloat(d.float())
		default:
			row[j] = d.value(kind, d.varint(), 0, "")
		}
	}
	if mode == laneGeneric && laneMode(rows, j) != laneGeneric {
		d.fail("generic lane for column %d, whose values fit a typed one", j)
	}
}

// value returns value.FromParts(k, i, f, s), failing on parts no value has.
func (d *frameReader) value(k value.Kind, i int64, f float64, s string) value.V {
	v, ok := value.FromParts(k, i, f, s)
	if !ok {
		d.fail("no %s value has this payload", k)
	}
	return v
}

// strings decodes a front-coded lane in two passes: one to check it and
// size a buffer for all its values, one to fill it. A value with no bytes
// of its own is a prefix of the previous one and takes no new bytes.
func (d *frameReader) strings(rows []Row, j int, bm []byte, budget *int) {
	start, total, prevLen := d.off, 0, uint64(0)
	for i := range rows {
		if !present(bm, i) {
			continue
		}
		p, rest := d.uvarint(), d.str()
		if p > prevLen {
			d.fail("prefix %d of a %d-byte string", p, prevLen)
		}
		if prevLen = p + uint64(len(rest)); len(rest) > 0 {
			if total += int(prevLen); total > *budget {
				d.fail("strings unfold to over %d bytes per frame byte", maxStringExpansion)
			}
		}
	}
	*budget -= total
	d.off = start
	var sb strings.Builder
	sb.Grow(total)
	prev := ""
	for i, row := range rows {
		if !present(bm, i) {
			continue
		}
		p, rest := d.uvarint(), d.str()
		s := prev[:p]
		if len(rest) > 0 {
			at := sb.Len()
			sb.WriteString(s)
			sb.Write(rest)
			if s = sb.String()[at:]; uint64(sharedPrefix(prev, s)) != p {
				d.fail("string %d not front-coded on its shared prefix", i)
			}
		}
		row[j] = value.NewString(s)
		prev = s
	}
}
