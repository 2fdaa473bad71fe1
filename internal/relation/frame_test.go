package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/value"
)

// layoutRelation is the worked example of PROTOCOL.md's frame layout: an
// INT lane, a front-coded STRING lane with a NULL, and a generic lane (a
// FLOAT-declared column holding a float, an int and a NULL).
func layoutRelation() *Relation {
	r := New(MustSchema(
		Column{Name: "id", Kind: value.KindInt},
		Column{Name: "name", Kind: value.KindString},
		Column{Name: "x", Kind: value.KindFloat},
	))
	r.MustAppend(value.NewInt(1), value.NewString("Cust#1"), value.NewFloat(1.5))
	r.MustAppend(value.NewInt(2), value.Null, value.NewInt(2))
	r.MustAppend(value.NewInt(-1), value.NewString("Cust#2"), value.Null)
	return r
}

// TestFrameLayout pins the frame byte by byte.
func TestFrameLayout(t *testing.T) {
	want := []byte{
		1,              // version
		3,              // columns
		2, 'i', 'd', 2, // "id" INT
		4, 'n', 'a', 'm', 'e', 4, // "name" STRING
		1, 'x', 3, // "x" FLOAT
		3,          // rows
		2, 2, 4, 1, // INT lane: zigzag 1, 2, -1
		0x84, 0b101, // STRING lane with NULLs: rows 0 and 2 present
		0, 6, 'C', 'u', 's', 't', '#', '1', // no shared prefix, "Cust#1"
		5, 1, '2', // 5 bytes shared, then "2"
		0,                                     // generic lane: kind, I, F, S per value
		3, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, 0, // FLOAT 1.5
		2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, // INT 2
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // NULL
	}
	got := AppendFrame(nil, layoutRelation())
	if !bytes.Equal(got, want) {
		t.Fatalf("frame\n got % x\nwant % x", got, want)
	}
	back, err := ReadFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, layoutRelation().Rows) {
		t.Errorf("decoded %v", back.Rows)
	}
}

// TestReadFrameRefuses: every way a frame can be other than AppendFrame
// writes it is an error, never a relation.
func TestReadFrameRefuses(t *testing.T) {
	one := func(lane ...byte) []byte { // one INT column "a", two rows, then lane
		return append([]byte{1, 1, 1, 'a', 2, 2}, lane...)
	}
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"empty", nil, "truncated"},
		{"version", []byte{2, 0, 0}, "version 2"},
		{"trailing", []byte{1, 0, 0, 0}, "trailing"},
		{"overlong varint", []byte{1, 0x80, 0x00, 0}, "bad varint"},
		{"empty name", []byte{1, 1, 0, 2, 0}, "empty name"},
		{"duplicate name", []byte{1, 2, 1, 'a', 2, 1, 'A', 2, 0}, "duplicate"},
		{"rows beyond the frame", []byte{1, 1, 1, 'a', 2, 0xff, 0x01}, "rows"},
		{"unknown lane", one(9, 2, 2), "unknown lane mode"},
		{"truncated lane", one(2, 2), "truncated"},
		{"bitmap without NULLs", one(0x82, 0b11, 2, 4), "bitmap of lane mode 0x82"},
		{"NULL lane with values", one(0x80, 0b01), "bitmap of lane mode 0x80"},
		{"bitmap past the rows", one(0x82, 0b101, 2), "bitmap of lane mode 0x82"},
		{"generic lane for INTs", one(0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0), "fit a typed one"},
		{"prefix past the string", []byte{1, 1, 1, 's', 4, 2, 4, 0, 1, 'a', 2, 1, 'b'}, "prefix 2"},
		{"prefix not shared", []byte{1, 1, 1, 's', 4, 2, 4, 0, 1, 'a', 0, 1, 'a'}, "shared prefix"},
	}
	for _, c := range cases {
		r, err := ReadFrame(c.frame)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, %v; want an error containing %q", c.name, r, err, c.want)
		}
	}
}

// randomRelation draws a relation from the shapes a frame must carry:
// typed lanes with NULL runs, mixed and off-declared kinds, strings under
// other kinds and unknown kinds, NaN payloads and −0, NULL-only columns,
// empty and long front-coded strings, zero rows and zero columns.
func randomRelation(rng *rand.Rand) *Relation {
	cols := make([]Column, rng.Intn(6))
	for j := range cols {
		cols[j] = Column{Name: fmt.Sprintf("c%d", j), Kind: value.Kind(rng.Intn(5))}
	}
	r := New(MustSchema(cols...))
	n := rng.Intn(40)
	if rng.Intn(5) == 0 {
		n = 0
	}
	r.Rows = MakeRows(n, len(cols))
	for i := range r.Rows {
		r.Rows[i] = r.Rows[i][:len(cols)]
	}
	strs := []string{"", "Customer#000001234", "Customer#000001235", "Customer#0000", "Customer#000001234x", strings.Repeat("w", 1500) + "a", strings.Repeat("w", 1500) + "b"}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000abc)}
	for j := range cols {
		style, nulls := rng.Intn(9), rng.Intn(3)
		for i := range r.Rows {
			if nulls > 0 && rng.Intn(4) == 0 {
				continue // NULL runs of any length, at any position
			}
			var v value.V
			switch style {
			case 0:
				v = value.NewInt(rng.Int63() - rng.Int63())
			case 1:
				v = value.NewBool(rng.Intn(2) == 0)
			case 2:
				v = value.NewFloat(floats[rng.Intn(len(floats))])
			case 3, 4:
				v = value.NewString(strs[rng.Intn(len(strs))])
			case 5: // mixed kinds
				v = []value.V{value.NewInt(7), value.NewFloat(-2), value.NewString("m"), value.NewBool(true)}[rng.Intn(4)]
			case 6: // an int sum in a FLOAT-declared state column
				v = value.NewInt(int64(rng.Intn(100)))
			case 7: // strings under other kinds, and unknown kinds
				v = value.V{K: value.Kind(rng.Intn(7)), S: strs[rng.Intn(3)]}
			case 8: // NULLs only
			}
			r.Rows[i][j] = v
		}
	}
	return r
}

// mixedPayloadFrames are frames whose one fault is a value carrying a
// payload its kind does not read: a generic lane of a FLOAT column whose
// first entry is the case's and whose second, a STRING, makes the lane
// generic. No value.V has such parts, so no encoder writes them. at is the
// byte offset just past the faulty entry.
func mixedPayloadFrames() (names []string, frames [][]byte, at []int) {
	f := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	cases := []struct {
		name string
		kind value.Kind
		i    int64
		f    []byte
	}{
		{"integer payload under FLOAT", value.KindFloat, 5, f(1.5)},
		{"integer payload under FLOAT 0", value.KindFloat, 1, f(0)},
		{"float bits under INT", value.KindInt, 5, f(1.5)},
		{"−0 under INT", value.KindInt, 0, f(math.Copysign(0, -1))},
		{"float bits under BOOL", value.KindBool, 1, f(1)},
		{"BOOL 2", value.KindBool, 2, f(0)},
		{"integer payload under NULL", value.KindNull, 1, f(0)},
		{"NaN bits under NULL", value.KindNull, 0, f(math.NaN())},
		{"integer payload under STRING", value.KindString, -1, f(0)},
		{"float bits under STRING", value.KindString, 0, f(2)},
		{"payload under an unknown kind", 6, 3, f(0)},
	}
	for _, c := range cases {
		b := []byte{FrameVersion, 1, 1, 'a', byte(value.KindFloat), 2, laneGeneric, byte(c.kind)}
		b = append(append(binary.AppendVarint(b, c.i), c.f...), 1, 'x')
		names, at = append(names, c.name), append(at, len(b))
		frames = append(frames, append(b, byte(value.KindString), 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'm'))
	}
	return names, frames, at
}

// TestReadFrameRefusesMixedPayloads: a generic-lane entry whose unused
// payload slot is not zero, or a BOOL other than 0 or 1 in a typed lane,
// is refused at the byte that ends it; the same frame with that slot
// zeroed decodes and re-encodes to itself.
func TestReadFrameRefusesMixedPayloads(t *testing.T) {
	names, frames, at := mixedPayloadFrames()
	for k, b := range frames {
		want := fmt.Sprintf("frame at byte %d: ", at[k])
		if r, err := ReadFrame(b); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "payload") {
			t.Errorf("%s: got %v, %v; want an error containing %q", names[k], r, err, want)
		}
	}
	zeroed := bytes.Clone(frames[0])
	zeroed[8] = 0 // the FLOAT's integer slot
	r, err := ReadFrame(zeroed)
	if err != nil || !bytes.Equal(AppendFrame(nil, r), zeroed) {
		t.Errorf("the zeroed control frame: %v, %v", r, err)
	}
	boolLane := []byte{FrameVersion, 1, 1, 'b', byte(value.KindBool), 2, byte(value.KindBool), 2, 4}
	if r, err := ReadFrame(boolLane); err == nil || !strings.Contains(err.Error(), "frame at byte 9: no BOOL value has this payload") {
		t.Errorf("BOOL lane holding 2: got %v, %v", r, err)
	}
}

// genRelation is a quick.Generator of random relations.
type genRelation struct{ r *Relation }

func (genRelation) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genRelation{randomRelation(rng)})
}

// TestFrameRoundTrip: a relation comes back from its frame exactly as it
// went in — value by value, floats by their bits, −0 and NaN payloads
// included.
func TestFrameRoundTrip(t *testing.T) {
	check := func(g genRelation) bool {
		in := g.r
		f, err := FrameOf(in)
		if err != nil || !bytes.Equal(f.Bytes(), AppendFrame(nil, in)) {
			t.Logf("FrameOf = %v, %v; want AppendFrame's bytes", f, err)
			return false
		}
		gr, err := ReadFrame(f.Bytes())
		if err != nil {
			t.Log(err)
			return false
		}
		if !gr.Schema.Equal(in.Schema) || len(gr.Rows) != len(in.Rows) {
			t.Logf("shape: %s %d rows, want %s %d", gr.Schema, len(gr.Rows), in.Schema, len(in.Rows))
			return false
		}
		for i, row := range in.Rows {
			for j, v := range row {
				if gr.Rows[i][j] != v { // the payload compares by its bits
					t.Logf("row %d col %d: read %#v, framed %#v", i, j, gr.Rows[i][j], v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// allocsFrame is the frame of 2 000 rows of a STRING key and two states.
func allocsFrame() []byte {
	r := New(MustSchema(
		Column{Name: "CustName", Kind: value.KindString},
		Column{Name: "n", Kind: value.KindInt},
		Column{Name: "s", Kind: value.KindFloat},
	))
	for i := 0; i < 2000; i++ {
		r.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", i)), value.NewInt(int64(i)), value.NewFloat(float64(i)/3))
	}
	return AppendFrame(nil, r)
}

// TestFrameDecodeAllocs: decoding costs a constant number of allocations
// per column, whatever the row count.
func TestFrameDecodeAllocs(t *testing.T) {
	b := allocsFrame()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ReadFrame(b); err != nil {
			t.Fatal(err)
		}
	}); allocs > 16 {
		t.Errorf("ReadFrame of 2000 rows × 3 columns: %.0f allocations, want at most 16", allocs)
	}
}

// bytesPerRun returns the bytes one call of fn allocates, averaged over
// runs on one P, as testing.AllocsPerRun counts allocations.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestDecodeFrameAllocs: checking a frame boxes nothing. DecodeFrame makes
// a constant number of allocations, of bytes that grow with the columns
// and not with the rows.
func TestDecodeFrameAllocs(t *testing.T) {
	b := allocsFrame()
	const perColumn = 256
	decode := func() {
		if _, err := DecodeFrame(b); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs > 12 {
		t.Errorf("DecodeFrame of 2000 rows × 3 columns: %.0f allocations, want at most 12", allocs)
	}
	if got := bytesPerRun(20, decode); got > 3*perColumn {
		t.Errorf("DecodeFrame of 2000 rows × 3 columns allocated %d bytes, want at most %d", got, 3*perColumn)
	}
}

// TestDecodeWideFrame: checking a frame's column names costs time linear
// in them. A frame of 2^17 distinct names, about 1 MB from anywhere,
// decodes in milliseconds; comparing its names pairwise takes 2^33 steps,
// tens of seconds. A frame that names one column twice, however wide, is
// refused.
func TestDecodeWideFrame(t *testing.T) {
	cols := make([]Column, 1<<17)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("%x", i), Kind: value.KindInt}
	}
	b := AppendFrame(nil, New(MustSchema(cols...)))
	start := time.Now()
	if _, err := DecodeFrame(b); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("DecodeFrame of %d columns took %v, want well under 5s", len(cols), took)
	}
	cols[len(cols)-1].Name = strings.ToUpper(cols[len(cols)/2].Name)
	if _, err := DecodeFrame(AppendFrame(nil, New(&Schema{Cols: cols}))); err == nil || !strings.Contains(err.Error(), "duplicate column") {
		t.Errorf("a frame naming a column twice among %d: err = %v, want a duplicate", len(cols), err)
	}
}

// frameAllocBound is what ReadFrame may allocate for a frame of n bytes.
func frameAllocBound(n int) uint64 { return 1024*uint64(n) + 64<<10 }

// FuzzFrame: decoding arbitrary bytes never panics and allocates within
// frameAllocBound; DecodeFrame accepts exactly what ReadFrame accepts, and
// its Relation and its lanes give ReadFrame's values; a frame that decodes
// re-encodes to the same bytes, and no strict prefix of it decodes.
func FuzzFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for seeds := 0; seeds < 32; {
		// Small seeds keep the fuzzer's mutation and minimization quick.
		if b := AppendFrame(nil, randomRelation(rng)); len(b) <= 2048 {
			f.Add(b)
			seeds++
		}
	}
	f.Add(AppendFrame(nil, layoutRelation()))
	_, mixed, _ := mixedPayloadFrames()
	for _, b := range mixed {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r, err := ReadFrame(b)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > frameAllocBound(len(b)) {
			t.Fatalf("ReadFrame of %d bytes allocated %d", len(b), got)
		}
		f, ferr := DecodeFrame(b)
		if (ferr == nil) != (err == nil) {
			t.Fatalf("ReadFrame: %v; DecodeFrame: %v", err, ferr)
		}
		if err != nil {
			return
		}
		if got := f.Relation(); !reflect.DeepEqual(got, r) {
			t.Fatalf("Frame.Relation\n%v\nReadFrame\n%v", got, r)
		}
		for j := range r.Schema.Cols {
			n := 0
			f.Lane(j, func(i int, v value.V) error {
				if n++; i != n-1 || v != r.Rows[i][j] {
					t.Fatalf("lane %d yields %#v as row %d, ReadFrame has %#v at row %d", j, v, i, r.Rows[n-1][j], n-1)
				}
				return nil
			})
			if n != f.Len() || n != r.Len() {
				t.Fatalf("lane %d yields %d values of %d rows", j, n, r.Len())
			}
		}
		// Rows boxes a selection of the columns, drawn from the input with
		// repeats, into r projected on it, with extra spare capacity.
		if w := r.Schema.Len(); w > 0 {
			cols := make([]int, int(b[len(b)-1])%(w+2))
			for c := range cols {
				cols[c] = int(b[c%len(b)]) % w
			}
			extra := int(b[0]) % 4
			var want []Row
			for _, row := range r.Rows {
				p := Row{}
				for _, j := range cols {
					p = append(p, row[j])
				}
				want = append(want, p)
			}
			got := f.Rows(cols, extra)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Rows(%v)\n%v\nprojected\n%v", cols, got, want)
			}
			for i, row := range got {
				if cap(row) != len(cols)+extra {
					t.Fatalf("Rows(%v, %d): row %d has capacity %d", cols, extra, i, cap(row))
				}
			}
		}
		if again := AppendFrame(nil, r); !bytes.Equal(again, b) {
			t.Fatalf("re-encoded\n% x\nfrom\n% x", again, b)
		}
		// The encoder records the lanes DecodeFrame finds, over every row
		// and over the rows a bitmap drawn from the input keeps.
		kept := make([]byte, (r.Len()+7)/8)
		var keptRows []Row
		for i, row := range r.Rows {
			if b[i%len(b)]&1 == 1 {
				kept[i/8] |= 1 << (i % 8)
				keptRows = append(keptRows, row)
			}
		}
		for _, c := range []struct {
			kept []byte
			rows []Row
		}{{nil, r.Rows}, {kept, keptRows}} {
			enc := EncodeFrame(r.Schema, r.Len(), c.kept, RowLanes(r.Rows, r.Schema.Indexes()))
			want := AppendFrame(nil, &Relation{Schema: r.Schema, Rows: c.rows})
			dec, err := DecodeFrame(want)
			if err != nil || !bytes.Equal(enc.Bytes(), want) || !reflect.DeepEqual(enc.lanes, dec.lanes) || enc.Len() != len(c.rows) {
				t.Fatalf("kept %x: encoded\n% x %+v\nwant\n% x %+v (%v)", c.kept, enc.Bytes(), enc.lanes, want, dec, err)
			}
		}
		// Every prefix of a short frame; about 256 spread over a long one,
		// and the longest.
		step := max(1, len(b)/256)
		for n := 0; n < len(b); n += step {
			if _, err := ReadFrame(b[:n]); err == nil {
				t.Fatalf("the %d-byte prefix of a %d-byte frame decodes", n, len(b))
			}
		}
		if _, err := ReadFrame(b[:len(b)-1]); err == nil {
			t.Fatalf("a %d-byte frame decodes without its last byte", len(b))
		}
	})
}

// TestEncodeFrameRecordsLanes: the frame EncodeFrame returns is the one
// DecodeFrame finds in its bytes, lane by lane, for rows of every shape
// randomRelation draws, under no bitmap, one keeping some rows, and one
// keeping none.
func TestEncodeFrameRecordsLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := randomRelation(rng)
		some, none := make([]byte, (r.Len()+7)/8), make([]byte, (r.Len()+7)/8)
		var someRows []Row
		for i, row := range r.Rows {
			if rng.Intn(2) == 0 {
				some[i/8] |= 1 << (i % 8)
				someRows = append(someRows, row)
			}
		}
		for _, c := range []struct {
			kept []byte
			rows []Row
		}{{nil, r.Rows}, {some, someRows}, {none, nil}} {
			f := EncodeFrame(r.Schema, r.Len(), c.kept, RowLanes(r.Rows, r.Schema.Indexes()))
			want := AppendFrame(nil, &Relation{Schema: r.Schema, Rows: c.rows})
			dec, err := DecodeFrame(f.Bytes())
			if err != nil {
				t.Fatalf("trial %d, kept %x: %v", trial, c.kept, err)
			}
			if !bytes.Equal(f.Bytes(), want) || f.Len() != len(c.rows) || !reflect.DeepEqual(f.lanes, dec.lanes) {
				t.Fatalf("trial %d, kept %x: encoded % x %+v, want % x %+v", trial, c.kept, f.Bytes(), f.lanes, want, dec.lanes)
			}
			if !reflect.DeepEqual(f.Relation().Rows, dec.Relation().Rows) {
				t.Fatalf("trial %d, kept %x: reads %v, decoded %v", trial, c.kept, f.Relation(), dec.Relation())
			}
			// Lanes at some of the columns, in another order, frame the
			// projection of the kept rows.
			var names []string
			for _, j := range rng.Perm(r.Schema.Len()) {
				if rng.Intn(2) == 0 {
					names = append(names, r.Schema.Cols[j].Name)
				}
			}
			schema, cols, err := r.Schema.Project(names)
			if err != nil {
				t.Fatal(err)
			}
			p, err := (&Relation{Schema: r.Schema, Rows: c.rows}).Project(names)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := EncodeFrame(schema, r.Len(), c.kept, RowLanes(r.Rows, cols)), AppendFrame(nil, p); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("trial %d, kept %x, columns %v: encoded % x, want % x", trial, c.kept, names, got.Bytes(), want)
			}
		}
	}
}

// TestValidateNil: no relation at all is refused, not dereferenced, and
// has no frame.
func TestValidateNil(t *testing.T) {
	var r *Relation
	if err := r.Validate(); err == nil {
		t.Error("a nil relation validates")
	}
	if _, err := FrameOf(r); !errors.Is(err, ErrMalformed) {
		t.Errorf("FrameOf(nil) = %v, want ErrMalformed", err)
	}
}

// TestGobRefusesMalformed (named for the codec the frame replaced): the
// wire carries no relation that has no frame. A row narrower than its
// schema does not frame, failing with ErrMalformed; bytes that are not a
// frame do not read. Both failures name the fault. The envelope marks a
// refused read ErrMalformed (transport's TestMalformedRelationRefused).
func TestGobRefusesMalformed(t *testing.T) {
	short := New(MustSchema(Column{Name: "a", Kind: value.KindInt}, Column{Name: "b", Kind: value.KindInt}))
	short.Rows = append(short.Rows, Row{value.NewInt(1)})
	if _, err := FrameOf(short); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "row 0 has 1 values") {
		t.Errorf("framing a short row: %v", err)
	}
	if _, err := ReadFrame([]byte{1, 1}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("reading a truncated frame: %v", err)
	}
}
