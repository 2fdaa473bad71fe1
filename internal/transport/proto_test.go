package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/value"
)

// message encodes a request or a reply as the envelope sends it.
func message[T Request | Response](t testing.TB, v *T) []byte {
	t.Helper()
	e := newMessage()
	defer e.free()
	switch v := any(v).(type) {
	case *Request:
		if err := encodeRequest(e, v); err != nil {
			t.Fatalf("encode: %v", err)
		}
	case *Response:
		encodeResponse(e, v)
	}
	if err := e.finish(); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(e.b)
}

// wireRequest sends req through the envelope and returns what a site
// decodes.
func wireRequest(t testing.TB, req *Request) *Request {
	t.Helper()
	body, err := readMessage(bytes.NewReader(message(t, req)), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeRequest(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return back
}

// wireResponse sends resp through the envelope and returns what a client
// decodes.
func wireResponse(t testing.TB, resp *Response) *Response {
	t.Helper()
	body, err := readMessage(bytes.NewReader(message(t, resp)), nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResponse(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return back
}

// allFieldsSet fails unless every exported field of v, and of every struct
// it points to or holds in a slice, is non-zero: a field the sample of
// TestEnvelopeCarriesEveryField leaves zero would go unchecked.
func allFieldsSet(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.Type() != reflect.TypeOf((*relation.Relation)(nil)) && !v.IsNil() {
			allFieldsSet(t, v.Elem(), path)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			allFieldsSet(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for _, f := range reflect.VisibleFields(v.Type()) {
			if !f.IsExported() {
				continue
			}
			fv := v.FieldByIndex(f.Index)
			if fv.IsZero() {
				t.Errorf("the sample leaves %s.%s zero: set it, so that the envelope is checked to carry it", path, f.Name)
			}
			allFieldsSet(t, fv, path+"."+f.Name)
		}
	}
}

// sampleRequest sets every exported field of a request, and of the specs
// it holds.
func sampleRequest() *Request {
	return &Request{
		Op: OpEvalRounds, Rel: "flow", Data: sampleRelation(4),
		Gen:      &GenSpec{Kind: "tpcr", Rel: "tpcr", Params: map[string]int64{"rows": 100, "seed": -7, "zero": 0}, Site: 2, NumSites: 8},
		BaseCols: []string{"SourceAS", "DestAS"}, BaseWhere: "F.NumBytes > 0", Detail: "flow",
		Base: sampleRelation(10), SiteDisjoint: true,
		Rounds: []RoundSpec{{
			Detail:      "flow",
			Aggs:        [][]string{{"count(*) AS c", "avg(F.NumBytes) AS a"}, {""}},
			Thetas:      []string{"F.SourceAS = B.SourceAS", ""},
			BaseAlias:   "B",
			DetailAlias: "F",
			Finalize:    true,
			Touched:     true,
		}},
		Round: -2, QueryID: "q1",
	}
}

// sampleResponse sets every exported field of a reply and its profile.
func sampleResponse() *Response {
	return &Response{
		Err: "boom", Code: CodeDraining, Rel: sampleRelation(5), RowCount: 5, ComputeNs: math.MinInt64,
		Profile: &SiteProfile{
			WallNs: 60, RowsIn: 10, RowsOut: 2, BytesInApprox: 160, BytesOutApprox: 32,
			Rounds: 2, Engine: "vector", Workers: 4,
			VecBatches: 3, VecRows: 3000, VecFilterRows: 1000, VecSelected: -400,
			Outcome: OutcomeOK,
		},
		Kept: []byte{0xff, 0x1f},
	}
}

// TestEnvelopeCarriesEveryField: a request and a reply with every exported
// field of Request, Response, SiteProfile, RoundSpec and GenSpec set come
// out of the envelope deep-equal to what went in, the reply's relation as
// its frame. A field the codec misses comes out zero.
func TestEnvelopeCarriesEveryField(t *testing.T) {
	req, resp := sampleRequest(), sampleResponse()
	allFieldsSet(t, reflect.ValueOf(req), "Request")
	allFieldsSet(t, reflect.ValueOf(resp), "Response")

	if back := wireRequest(t, req); !reflect.DeepEqual(back, req) {
		t.Errorf("request\n%+v\ncame out as\n%+v", req, back)
	}
	back := wireResponse(t, resp)
	f, err := back.Frame()
	if err != nil || !reflect.DeepEqual(f.Relation(), resp.Rel) {
		t.Errorf("reply relation came out as %v, %v", f, err)
	}
	back.Rel, back.frame = resp.Rel, nil
	if !reflect.DeepEqual(back, resp) {
		t.Errorf("reply\n%+v\ncame out as\n%+v", resp, back)
	}
}

// TestEnvelopeDeterministic: a message's bytes are a function of its
// values. A reply's clocks take 8 bytes whatever they read, and a request
// carries its generator parameters in key order, whatever order the map
// iterates in.
func TestEnvelopeDeterministic(t *testing.T) {
	short := message(t, &Response{ComputeNs: 1, Profile: &SiteProfile{WallNs: 1}})
	long := message(t, &Response{ComputeNs: math.MaxInt64, Profile: &SiteProfile{WallNs: math.MaxInt64}})
	if len(short) != len(long) {
		t.Errorf("a reply of 1 ns is %d bytes, one of MaxInt64 ns %d", len(short), len(long))
	}
	params := map[string]int64{}
	for i := 0; i < 20; i++ {
		params[fmt.Sprint("p", i)] = int64(i)
	}
	first := message(t, &Request{Op: OpGenerate, Gen: &GenSpec{Params: params}})
	for i := 0; i < 10; i++ {
		if got := message(t, &Request{Op: OpGenerate, Gen: &GenSpec{Params: params}}); !bytes.Equal(got, first) {
			t.Fatalf("the same request encoded as\n% x\nand\n% x", first, got)
		}
	}
}

// TestRequestGobRoundTrip (named for the codec the envelope replaced): an
// evaluation request comes out of the envelope with its scalars, slices,
// rounds, generator spec and base relation intact.
func TestRequestGobRoundTrip(t *testing.T) {
	req := &Request{
		Op:        OpEvalRounds,
		Rel:       "flow",
		Detail:    "flow",
		BaseCols:  []string{"SourceAS", "DestAS"},
		BaseWhere: "F.NumBytes > 0",
		Base:      sampleRelation(10),
		Gen: &GenSpec{
			Kind: "tpcr", Rel: "tpcr",
			Params: map[string]int64{"rows": 100, "seed": 7},
			Site:   2, NumSites: 8,
		},
		Rounds: []RoundSpec{{
			Detail:      "flow",
			Aggs:        [][]string{{"count(*) AS c", "avg(F.NumBytes) AS a"}},
			Thetas:      []string{"F.SourceAS = B.SourceAS"},
			BaseAlias:   "B",
			DetailAlias: "F",
			Finalize:    true,
			Touched:     true,
		}},
	}
	back := wireRequest(t, req)
	if back.Op != req.Op || back.Rel != req.Rel || back.BaseWhere != req.BaseWhere {
		t.Errorf("scalar fields lost: %+v", back)
	}
	if !reflect.DeepEqual(back.BaseCols, req.BaseCols) {
		t.Error("slices lost")
	}
	if !reflect.DeepEqual(back.Rounds, req.Rounds) {
		t.Errorf("rounds lost: %+v", back.Rounds)
	}
	if !reflect.DeepEqual(back.Gen, req.Gen) {
		t.Errorf("gen lost: %+v", back.Gen)
	}
	if back.Base.Len() != req.Base.Len() {
		t.Error("base relation lost")
	}
}

// TestResponseGobRoundTrip (named for the codec the envelope replaced): a
// reply comes out of the envelope with its error, counts, clock and
// relation intact.
func TestResponseGobRoundTrip(t *testing.T) {
	resp := &Response{Err: "boom", Rel: sampleRelation(5), RowCount: 5, ComputeNs: 1234}
	back := wireResponse(t, resp)
	f, err := back.Frame()
	if err != nil {
		t.Fatalf("reply relation: %v", err)
	}
	if back.Err != "boom" || back.RowCount != 5 || back.ComputeNs != 1234 || f.Relation().Len() != 5 {
		t.Errorf("response lost: %+v", back)
	}
}

// TestSiteProfileGobRoundTrip (named for the codec the envelope replaced):
// a tagged exchange carries the profile payload intact.
func TestSiteProfileGobRoundTrip(t *testing.T) {
	resp := &Response{
		Rel: sampleRelation(2), ComputeNs: 50,
		Profile: &SiteProfile{
			WallNs: 60, RowsIn: 10, RowsOut: 2,
			BytesInApprox: 160, BytesOutApprox: 32,
			Rounds: 2, Engine: "vec", Workers: 4,
			VecBatches: 3, VecRows: 3000, VecFilterRows: 1000, VecSelected: 400,
			Outcome: OutcomeOK,
		},
	}
	back := wireResponse(t, resp)
	if !reflect.DeepEqual(back.Profile, resp.Profile) {
		t.Errorf("profile lost on the wire: %+v", back.Profile)
	}
}

func sampleRounds() []RoundSpec {
	return []RoundSpec{{
		Detail: "flow", Aggs: [][]string{{"count(*) AS c"}},
		Thetas: []string{"F.SourceAS = B.SourceAS"},
	}}
}

// TestKeysFieldSkew: a message carrying a field this build does not know —
// as a peer that still sent the key K as Request.Keys beside BaseCols
// would — is refused whole, not half-read.
func TestKeysFieldSkew(t *testing.T) {
	req := message(t, &Request{Op: OpEvalRounds, BaseCols: []string{"SourceAS"}, Rounds: sampleRounds()})
	resp := message(t, &Response{RowCount: 1})
	req[6] |= 0x10  // bit 12 of the request's presence bitmap
	resp[5] |= 0x80 // bit 7 of the reply's
	if _, err := decodeRequest(req[4:]); err == nil || !strings.Contains(err.Error(), "a field this build does not know") {
		t.Errorf("a request with a 13th field: %v", err)
	}
	if _, err := decodeResponse(resp[4:]); err == nil || !strings.Contains(err.Error(), "a field this build does not know") {
		t.Errorf("a reply with an 8th field: %v", err)
	}
}

// TestFailureTable: every classified code rebuilds its sentinel from a
// Response, and that error classifies back to the same code and outcome;
// CodeOK and an unknown code rebuild a plain site error. Whether or not
// the site's text already ends with the sentinel's, as a site's own
// refusal does, the rebuilt error names the sentinel at most once.
func TestFailureTable(t *testing.T) {
	cases := []struct {
		code     int
		sentinel error // nil: the error matches no sentinel
		outcome  string
	}{
		{CodeOverloaded, ErrOverloaded, OutcomeOverloaded},
		{CodeDraining, ErrDraining, OutcomeDraining},
		{CodeInconsistent, ErrInconsistent, OutcomeError},
		{CodeOK, nil, OutcomeError},
		{99, nil, OutcomeError},
	}
	tested := map[int]bool{}
	for _, c := range cases {
		tested[c.code] = true
		texts := []string{"boom"}
		if c.sentinel != nil {
			texts = append(texts, fmt.Errorf("limit hit: %w", c.sentinel).Error())
		}
		for _, text := range texts {
			err := (&Response{Err: text, Code: c.code}).Error()
			if err == nil {
				t.Fatalf("code %d: Response.Error() = nil", c.code)
			}
			for _, f := range failures {
				if got, want := errors.Is(err, f.sentinel), f.sentinel == c.sentinel; got != want {
					t.Errorf("code %d: errors.Is(%v, %v) = %v, want %v", c.code, err, f.sentinel, got, want)
				}
				if n := strings.Count(err.Error(), f.sentinel.Error()); n > 1 {
					t.Errorf("code %d: %q names %v %d times", c.code, err, f.sentinel, n)
				}
			}
			wantCode := c.code
			if c.sentinel == nil {
				wantCode = CodeOK
			}
			if got := ErrCode(err); got != wantCode {
				t.Errorf("code %d: ErrCode = %d, want %d", c.code, got, wantCode)
			}
			if got := ErrOutcome(err); got != c.outcome {
				t.Errorf("code %d: ErrOutcome = %q, want %q", c.code, got, c.outcome)
			}
		}
	}
	for _, f := range failures {
		if !tested[f.code] {
			t.Errorf("failure row for code %d has no case here", f.code)
		}
	}
}

// gobRequest and gobReply are the first bytes of the previous protocol's
// streams, each a gob type preamble: a client's request, then a server's
// reply.
const (
	gobRequest = "ff9a7f030101077265717565737401ff8000010c01024f70010400010352656c010c00010444617461"
	gobReply   = "5eff97030101057265706c7901ff980001070103457272010c00"
)

// TestUntaggedWireCompat verifies the compatibility rules of the wire: an
// untagged request costs no profiling byte, and a peer of the previous
// protocol, a gob stream, is refused at its first message with an error
// naming both versions. A request of a retired op, 3 or 5, decodes as
// itself: no site answers it (internal/site's TestZeroRoundRequestsRefused),
// no relay either (internal/core's TestRelayErrors), no hedger
// races it and no replica layer places it.
func TestUntaggedWireCompat(t *testing.T) {
	req := &Request{
		Op: OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes > 0",
		Rounds: sampleRounds(),
		Round:  2,
	}
	tagged := *req
	tagged.QueryID = "q1"
	if got, want := len(message(t, &tagged))-len(message(t, req)), 1+len("q1"); got != want {
		t.Errorf("tagging costs %d bytes, want %d (the ID's length and bytes)", got, want)
	}
	if got := message(t, &Response{}); len(got) != 6 {
		t.Errorf("an empty reply is %d bytes, want 6: the length, the version and one byte of presence bits", len(got))
	}

	old := wireRequest(t, &Request{Op: 3, Detail: "flow", BaseCols: []string{"SourceAS"}, Round: 1})
	if old.QueryID != "" || old.Op != 3 || old.Op.String() != "Op(3)" || hedgeable(old.Op) || old.Round != 1 {
		t.Errorf("an op 3 request decoded as %+v", old)
	}
	drop := wireRequest(t, &Request{Op: 5, Rel: "flow"})
	if drop.Op != 5 || drop.Op.String() != "Op(5)" || drop.Rel != "flow" || hedgeable(drop.Op) || placement(drop.Op) {
		t.Errorf("an op 5 request decoded as %+v", drop)
	}

	for _, stream := range []string{gobRequest, gobReply} {
		b, err := hex.DecodeString(stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readMessage(bytes.NewReader(b), nil); err == nil || !strings.Contains(err.Error(), "protocol version 1; this build speaks version 2") {
			t.Errorf("a gob stream read as %v, want a refusal naming versions 1 and 2", err)
		}
	}
}

// TestValueWireProperty: arbitrary values survive the wire exactly.
func TestValueWireProperty(t *testing.T) {
	f := func(kind uint8, i int64, fl float64, s string) bool {
		var v value.V
		switch kind % 5 {
		case 0:
			v = value.Null
		case 1:
			v = value.NewBool(i%2 == 0)
		case 2:
			v = value.NewInt(i)
		case 3:
			v = value.NewFloat(fl)
		case 4:
			v = value.NewString(s)
		}
		row := relation.Row{v}
		rel := relation.New(relation.MustSchema(relation.Column{Name: "x", Kind: v.K}))
		rel.Rows = append(rel.Rows, row)
		back := wireRequest(t, &Request{Op: OpLoad, Rel: "t", Data: rel})
		got := back.Data.Rows[0][0]
		if v.IsNull() {
			return got.IsNull()
		}
		// NaN never equals itself; compare bit pattern via kind+string.
		if v.K == value.KindFloat && fl != fl {
			return got.K == value.KindFloat && got.Float() != got.Float()
		}
		return value.Equal(got, v)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSchemaLookupAfterWire: a schema decoded on the far side answers
// lookups.
func TestSchemaLookupAfterWire(t *testing.T) {
	back := wireRequest(t, &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(3)})
	if i, ok := back.Data.Schema.Lookup("s"); !ok || i != 2 {
		t.Errorf("lookup after wire: %d %v", i, ok)
	}
}

// TestLargeRelationWire pushes a payload past the first read chunk through
// to catch framing issues.
func TestLargeRelationWire(t *testing.T) {
	rel := sampleRelation(20000)
	back := wireRequest(t, &Request{Op: OpLoad, Rel: "big", Data: rel})
	if back.Data.Len() != rel.Len() {
		t.Fatalf("large relation: %d rows, want %d", back.Data.Len(), rel.Len())
	}
	if !value.Equal(back.Data.Rows[19999][0], rel.Rows[19999][0]) {
		t.Error("tail row corrupted")
	}
}
