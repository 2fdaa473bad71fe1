package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"

	"repro/internal/relation"
)

// The envelope carries a Request or a Response (PROTOCOL.md, "Framing and
// encoding", has the layout byte by byte): the body's length as 4
// little-endian bytes, then the body, which is the protocol version and
// the struct's exported fields in order behind a presence bitmap, one bit
// a field, set iff the field is not zero (a list or a map: not empty). A
// bool is its bit alone; integers are zigzag varints but the clocks
// (tagged wire:"clock"), which take 8 bytes whatever they read; strings,
// byte strings and relations (as their frames) are a uvarint length and
// their bytes; lists are a uvarint count and their items; a map is its
// keys in order, each followed by its value; a pointer is what it points
// to. Decoding accepts only what encoding writes, so a message's bytes are
// a function of its values.
const (
	// protocolVersion starts every body. The previous protocol, a gob
	// stream, is version 1.
	protocolVersion = 2
	// prefixLen is the length prefix's size, which a message's byte count
	// includes.
	prefixLen  = 4
	maxMessage = 1 << 30
	// readChunk is the most a read allocates before a message's bytes
	// arrive, so a length prefix alone cannot make it allocate.
	readChunk = 64 << 10
)

// codec writes a message or reads a body: one walk over a struct's fields
// does either. Writing only reads the struct, which concurrent calls may
// share. A body that does not decode panics with a decodeError, which
// decode recovers.
type codec struct {
	dec bool
	b   []byte // the message written, or the body read
	off int    // the next byte read
	// frames are the message's relations in field order: given to
	// encoding, found by decoding (unless box sets the fields).
	frames []*relation.Frame
	box    bool
}

type decodeError struct{ err error }

var relationType = reflect.TypeOf((*relation.Relation)(nil))

var encoders = sync.Pool{New: func() any { return new(codec) }}

// newMessage returns a pooled codec with a message begun in it; free
// returns it.
func newMessage() *codec {
	c := encoders.Get().(*codec)
	c.b = append(c.b[:0], 0, 0, 0, 0, protocolVersion) // finish writes the prefix
	return c
}

func (c *codec) free() {
	c.frames = nil
	encoders.Put(c)
}

// finish writes the message's length prefix, refusing a body over
// maxMessage.
func (c *codec) finish() error {
	n := len(c.b) - prefixLen
	if n > maxMessage {
		return fmt.Errorf("transport: a message of %d bytes, at most %d allowed", n, maxMessage)
	}
	binary.LittleEndian.PutUint32(c.b, uint32(n))
	return nil
}

// readMessage reads one message, and not a byte past it, and returns its
// body, in buf's array when that holds min(length, readChunk) bytes. It
// checks the version before the length, so a peer of another protocol is
// refused at its first bytes.
func readMessage(r io.Reader, buf []byte) ([]byte, error) {
	h := slices.Grow(buf[:0], prefixLen+1)[:prefixLen+1]
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, err
	}
	if h[prefixLen] != protocolVersion {
		return nil, malformedError(fmt.Sprintf("transport: a message of protocol version %d; this build speaks version %d", h[prefixLen], protocolVersion))
	}
	n := int(binary.LittleEndian.Uint32(h[:prefixLen]))
	if n == 0 || n > maxMessage {
		return nil, malformedError(fmt.Sprintf("transport: a message of %d bytes, want 1 to %d", n, maxMessage))
	}
	body := append(slices.Grow(h[:0], min(n, readChunk)), protocolVersion)
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n, 2*cap(body))-len(body))
		}
		m, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		if body = body[:len(body)+m]; err != nil {
			return nil, err
		}
	}
	return body, nil
}

// A malformedError refuses a message's header, not its connection.
type malformedError string

func (e malformedError) Error() string { return string(e) }

// encodeRequest appends req to c's message. A relation that has no frame
// fails it (relation.ErrMalformed).
func encodeRequest(c *codec, req *Request) error {
	base, err := req.BaseFrame()
	var data *relation.Frame
	if err == nil && req.Data != nil {
		data, err = relation.FrameOf(req.Data)
	}
	if err == nil {
		c.frames = []*relation.Frame{data, base}
		c.walk(reflect.ValueOf(req).Elem())
	}
	return err
}

// decodeRequest decodes a request body, its relations boxed. One that is
// not a frame fails it with relation.ErrMalformed; the request holds what
// was decoded before the failure.
func decodeRequest(b []byte) (*Request, error) {
	req := new(Request)
	_, err := decode(b, true, req)
	return req, err
}

// encodeResponse appends r to c's message, its relation the frame a
// handler set or the frame of Rel; in place of a reply whose Rel has no
// frame, a site error naming the fault.
func encodeResponse(c *codec, r *Response) {
	f, err := r.Frame()
	if err != nil && r.Rel != nil {
		r, f = &Response{Err: "transport: reply: " + err.Error()}, nil
	}
	c.frames = []*relation.Frame{f}
	c.walk(reflect.ValueOf(r).Elem())
}

// decodeResponse decodes a reply body, its relation kept as the checked
// frame Response.Frame returns. One that is not a frame fails it with
// relation.ErrMalformed.
func decodeResponse(b []byte) (*Response, error) {
	r := new(Response)
	frames, err := decode(b, false, r)
	if len(frames) > 0 {
		r.frame = frames[0]
	}
	return r, err
}

// decode decodes body b into *v, boxing its relations or returning their
// frames, and refuses another version and trailing bytes. It never
// panics.
func decode(b []byte, box bool, v any) (frames []*relation.Frame, err error) {
	c := &codec{dec: true, b: b, box: box}
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(decodeError)
			if !ok {
				panic(p)
			}
			frames, err = c.frames, e.err
		}
	}()
	c.check(c.read(1)[0] == protocolVersion, "another protocol version")
	c.walk(reflect.ValueOf(v).Elem())
	c.check(c.off == len(b), "trailing bytes")
	return c.frames, nil
}

// walk codes v: a struct, a list item or what a pointer points to.
func (c *codec) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		c.fields(v)
	case reflect.Int, reflect.Int64:
		x := v.Int()
		u := uint64(x<<1) ^ uint64(x>>63)
		if c.uvarint(&u); c.dec {
			x = int64(u>>1) ^ -int64(u&1)
			c.check(!v.OverflowInt(x), "an integer out of range")
			v.SetInt(x)
		}
	case reflect.String:
		if !c.dec {
			c.raw(nil, v.Len())
			c.b = append(c.b, v.String()...)
		} else {
			v.SetString(string(c.raw(nil, 0)))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if b := c.raw(v.Bytes(), v.Len()); c.dec {
				v.SetBytes(b)
			}
			return
		}
		n := c.count(v.Len())
		if c.dec {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			c.walk(v.Index(i))
		}
	case reflect.Map: // of string keys, in key order
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		n := c.count(len(keys))
		if c.dec {
			v.Set(reflect.MakeMapWithSize(v.Type(), n))
		}
		prev := ""
		for i := 0; i < n; i++ {
			k, x := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			if !c.dec {
				k, x = keys[i], v.MapIndex(keys[i])
			}
			c.walk(k)
			c.walk(x)
			c.check(i == 0 || k.String() > prev, "map keys out of order")
			if prev = k.String(); c.dec {
				v.SetMapIndex(k, x)
			}
		}
	case reflect.Pointer:
		if c.dec {
			v.Set(reflect.New(v.Type().Elem()))
		}
		c.walk(v.Elem())
	default:
		panic("transport: the envelope has no encoding for " + v.Type().String())
	}
}

// A field is one exported field of a struct the envelope carries.
type field struct {
	index int
	clock bool // tagged wire:"clock"
}

// fieldsOf caches each struct type's exported fields.
var fieldsOf sync.Map // reflect.Type → []field

// fields codes a struct's exported fields behind their presence bitmap.
func (c *codec) fields(v reflect.Value) {
	fs, ok := fieldsOf.Load(v.Type())
	if !ok {
		var list []field
		for _, f := range reflect.VisibleFields(v.Type()) {
			if f.IsExported() {
				list = append(list, field{f.Index[0], f.Tag.Get("wire") == "clock"})
			}
		}
		fs, _ = fieldsOf.LoadOrStore(v.Type(), list)
	}
	list := fs.([]field)
	size := (len(list) + 7) / 8
	bits := len(c.b)
	if c.dec {
		bm := c.read(uint64(size))
		c.check(len(list)%8 == 0 || bm[size-1]>>(len(list)%8) == 0, "a field this build does not know")
		bits = c.off - size
	} else {
		c.b = append(c.b, make([]byte, size)...)
	}
	for k, fd := range list {
		f, at, mask := v.Field(fd.index), bits+k/8, byte(1)<<(k%8)
		if f.Type() == relationType {
			c.frame(f, at, mask)
			continue
		}
		if !c.dec && !empty(f) {
			c.b[at] |= mask
		}
		switch {
		case c.b[at]&mask == 0:
			continue
		case f.Kind() == reflect.Bool:
			if c.dec {
				f.SetBool(true)
			}
		case fd.clock && c.dec:
			f.SetInt(int64(binary.LittleEndian.Uint64(c.read(8))))
		case fd.clock:
			c.b = binary.LittleEndian.AppendUint64(c.b, uint64(f.Int()))
		default:
			c.walk(f)
		}
		c.check(!empty(f), "a present field of zero value")
	}
}

// empty reports whether a field is absent: its zero value, or a list or a
// map of no item.
func empty(v reflect.Value) bool {
	if v.Kind() == reflect.Slice || v.Kind() == reflect.Map {
		return v.Len() == 0
	}
	return v.IsZero()
}

// frame codes relation field f, whose presence bit is mask at byte at, as
// its frame: on encoding the next of c.frames; on decoding checked, then
// boxed into f or kept in c.frames.
func (c *codec) frame(f reflect.Value, at int, mask byte) {
	if !c.dec {
		fr := c.frames[0]
		if c.frames = c.frames[1:]; fr != nil {
			c.b[at] |= mask
			c.raw(fr.Bytes(), len(fr.Bytes()))
		}
		return
	}
	if c.b[at]&mask == 0 {
		return
	}
	fr, err := relation.DecodeFrame(c.raw(nil, 0))
	if err != nil {
		panic(decodeError{fmt.Errorf("%w: %w", relation.ErrMalformed, err)})
	}
	if c.box {
		f.Set(reflect.ValueOf(fr.Relation()))
	} else {
		c.frames = append(c.frames, fr)
	}
}

// check fails the decoding unless ok.
func (c *codec) check(ok bool, what string) {
	if !ok {
		panic(decodeError{fmt.Errorf("transport: malformed message: at byte %d: %s", c.off, what)})
	}
}

func (c *codec) read(n uint64) []byte {
	c.check(n <= uint64(len(c.b)-c.off), "truncated")
	c.off += int(n)
	return c.b[c.off-int(n) : c.off : c.off]
}

// uvarint codes x in its one minimal encoding.
func (c *codec) uvarint(x *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *x)
		return
	}
	v, n := binary.Uvarint(c.b[c.off:])
	c.check(n > 0 && (n == 1 || c.b[c.off+n-1] != 0), "a bad varint")
	*x, c.off = v, c.off+n
}

// raw codes a byte string of n bytes, b: encoding writes its length, and
// b when given; decoding reads both.
func (c *codec) raw(b []byte, n int) []byte {
	u := uint64(n)
	if c.uvarint(&u); c.dec {
		return c.read(u)
	}
	c.b = append(c.b, b...)
	return b
}

// count codes a list's length. Every item takes a byte or more, so a count
// cannot make the decoder allocate past the body's bytes.
func (c *codec) count(n int) int {
	u := uint64(n)
	c.uvarint(&u)
	c.check(!c.dec || u <= uint64(len(c.b)-c.off), "a count past the body")
	return int(u)
}
