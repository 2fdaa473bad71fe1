package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/value"
)

// gobRoundTrip encodes and decodes v, returning the copy.
func gobRoundTrip[T any](t *testing.T, v *T) *T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

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
	back := gobRoundTrip(t, req)
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

func sampleRounds() []RoundSpec {
	return []RoundSpec{{
		Detail: "flow", Aggs: [][]string{{"count(*) AS c"}},
		Thetas: []string{"F.SourceAS = B.SourceAS"},
	}}
}

// keysRequest is a request of the protocol that still carried the key K as
// Request.Keys beside BaseCols.
type keysRequest struct {
	Op       Op
	BaseCols []string
	Rounds   []RoundSpec
	Keys     []string
}

// TestKeysFieldSkew: gob skips a field the receiver lacks, so a request
// from a peer that still sends Keys decodes cleanly, and one without it
// decodes on that peer with Keys empty.
func TestKeysFieldSkew(t *testing.T) {
	old := &keysRequest{Op: OpEvalRounds, BaseCols: []string{"SourceAS"},
		Rounds: sampleRounds(), Keys: []string{"SourceAS"}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var req Request
	if err := gob.NewDecoder(&buf).Decode(&req); err != nil {
		t.Fatalf("decode a request with Keys: %v", err)
	}
	if req.Op != old.Op || !reflect.DeepEqual(req.BaseCols, old.BaseCols) || !reflect.DeepEqual(req.Rounds, old.Rounds) {
		t.Errorf("request with Keys decoded wrong: %+v", req)
	}
	var back keysRequest
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode into the old field set: %v", err)
	}
	if back.Keys != nil || !reflect.DeepEqual(back.BaseCols, old.BaseCols) {
		t.Errorf("old peer decoded %+v", back)
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

func TestResponseGobRoundTrip(t *testing.T) {
	resp := &Response{Err: "boom", Rel: sampleRelation(5), RowCount: 5, ComputeNs: 1234}
	back := gobRoundTrip(t, resp)
	if back.Err != "boom" || back.RowCount != 5 || back.ComputeNs != 1234 || back.Rel.Len() != 5 {
		t.Errorf("response lost: %+v", back)
	}
}

// legacyRequest and legacyResponse mirror the Request and Response field
// sets of the protocol that still carried the recovery tags Epoch and
// DeadlineNs. Gob matches struct fields by name (unknown fields are
// skipped, missing ones stay zero), so these stand in for a site or
// coordinator of that protocol, and — with the fields from QueryID and
// Profile on left zero, which gob omits — for one from before the QueryID
// profiling tag.
type legacyRequest struct {
	Op         Op
	Rel        string
	Data       *relation.Relation
	Gen        *GenSpec
	BaseCols   []string
	BaseWhere  string
	Detail     string
	Base       *relation.Relation
	Rounds     []RoundSpec
	Epoch      string
	Round      int
	QueryID    string
	DeadlineNs int64
}

type legacyResponse struct {
	Err       string
	Code      int
	Rel       *relation.Relation
	RowCount  int
	ComputeNs int64
	Profile   *SiteProfile
	Kept      []byte
}

// TestUntaggedWireCompat verifies the compatibility rule of the QueryID
// field: untagged requests interoperate with the previous protocol
// version in both directions (gob omits zero-valued fields from the
// value encoding, so an untagged request ships no profiling bytes), and
// a response without a profile decodes cleanly on either side. A request
// carrying the retired Epoch and DeadlineNs tags still decodes, the tags
// dropped; internal/site's TestPreviousProtocolRequestEvaluates shows
// such a request is evaluated, not shed. A reply framed by its handler
// reads on the previous protocol's side as its boxed relation.
func TestUntaggedWireCompat(t *testing.T) {
	req := &Request{
		Op: OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes > 0",
		Rounds: sampleRounds(),
		Round:  2,
	}

	// New coordinator → old site: the untagged request decodes into the
	// legacy field set with nothing lost and nothing extra.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	untaggedLen := buf.Len()
	var oldSite legacyRequest
	if err := gob.NewDecoder(&buf).Decode(&oldSite); err != nil {
		t.Fatalf("legacy decode of untagged request: %v", err)
	}
	if oldSite.Op != req.Op || oldSite.Detail != req.Detail || oldSite.Epoch != "" || oldSite.DeadlineNs != 0 ||
		oldSite.Round != 2 || !reflect.DeepEqual(oldSite.Rounds, req.Rounds) {
		t.Errorf("legacy site saw different request: %+v", oldSite)
	}

	// Old coordinator → new site: a legacy request decodes with an empty
	// QueryID, i.e. profiling stays off, and its recovery tags — an epoch
	// and a deadline stamp saying "already expired" — are skipped. Its op
	// 3, the retired base-values op, decodes as itself: no site answers it
	// (internal/site's TestZeroRoundRequestsRefused) and no hedger races it.
	buf.Reset()
	old := &legacyRequest{Op: 3, Detail: "flow", BaseCols: []string{"SourceAS"}, Round: 1, Epoch: "e2", DeadlineNs: -1}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatalf("encode legacy: %v", err)
	}
	var newSite Request
	if err := gob.NewDecoder(&buf).Decode(&newSite); err != nil {
		t.Fatalf("decode legacy request: %v", err)
	}
	if newSite.QueryID != "" || newSite.Op != 3 || newSite.Op.String() != "Op(3)" || hedgeable(newSite.Op) || newSite.Round != 1 ||
		!reflect.DeepEqual(newSite.BaseCols, old.BaseCols) {
		t.Errorf("legacy request decoded wrong: %+v", newSite)
	}

	// Tagging is the only thing that costs bytes: the same request with a
	// QueryID encodes strictly longer, so untagged executions pay nothing.
	buf.Reset()
	tagged := *req
	tagged.QueryID = "q1"
	if err := gob.NewEncoder(&buf).Encode(&tagged); err != nil {
		t.Fatalf("encode tagged: %v", err)
	}
	if buf.Len() <= untaggedLen {
		t.Errorf("tagged request (%d bytes) not longer than untagged (%d)", buf.Len(), untaggedLen)
	}

	// Response side: a profile-free response decodes into the legacy
	// shape, and a legacy response decodes with a nil Profile.
	buf.Reset()
	resp := &Response{Rel: sampleRelation(3), RowCount: 3, ComputeNs: 99}
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatalf("encode response: %v", err)
	}
	var oldCoord legacyResponse
	if err := gob.NewDecoder(&buf).Decode(&oldCoord); err != nil {
		t.Fatalf("legacy decode of response: %v", err)
	}
	if oldCoord.ComputeNs != 99 || oldCoord.Rel.Len() != 3 {
		t.Errorf("legacy coordinator saw different response: %+v", oldCoord)
	}
	// A reply goes out as the mirror a server encodes, its relation the
	// frame a handler set: a coordinator of the previous protocol, decoding
	// into Response with Rel boxed, reads it, and past the type preamble
	// its bytes are those of the same reply sent boxed.
	f, err := relation.FrameOf(sampleRelation(3))
	if err != nil {
		t.Fatal(err)
	}
	framed := &Response{RowCount: 3, ComputeNs: 99, Kept: []byte{0b101}}
	framed.SetFrame(f)
	out := framed.wire()
	// warm is the second of two encodings of v on one stream — the message
	// alone, without the preamble — less the type id gob numbers v's type
	// with in this process: its length, then its value.
	warm := func(v any) []byte {
		var b bytes.Buffer
		enc := gob.NewEncoder(&b)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		n := b.Len()
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		msg := b.Bytes()[n:]
		skip := func(b []byte) []byte { // past one gob-encoded unsigned integer
			if b[0] < 0x80 {
				return b[1:]
			}
			return b[1+int(-int8(b[0])):]
		}
		length := msg[:len(msg)-len(skip(msg))]
		return append(bytes.Clone(length), skip(skip(msg))...)
	}
	boxed := &Response{Rel: sampleRelation(3), RowCount: 3, ComputeNs: 99, Kept: []byte{0b101}}
	if got, want := warm(out), warm(boxed); !bytes.Equal(got, want) {
		t.Errorf("a framed reply's message\n% x\nthe boxed one's\n% x", got, want)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	oldCoord = legacyResponse{}
	if err := gob.NewDecoder(&buf).Decode(&oldCoord); err != nil {
		t.Fatalf("legacy decode of a framed reply: %v", err)
	}
	if oldCoord.ComputeNs != 99 || oldCoord.RowCount != 3 || !reflect.DeepEqual(oldCoord.Kept, boxed.Kept) || !reflect.DeepEqual(oldCoord.Rel, sampleRelation(3)) {
		t.Errorf("legacy coordinator saw a different framed reply: %+v", oldCoord)
	}

	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&legacyResponse{RowCount: 7}); err != nil {
		t.Fatalf("encode legacy response: %v", err)
	}
	var newCoord Response
	if err := gob.NewDecoder(&buf).Decode(&newCoord); err != nil {
		t.Fatalf("decode legacy response: %v", err)
	}
	if newCoord.Profile != nil || newCoord.RowCount != 7 {
		t.Errorf("legacy response decoded wrong: %+v", newCoord)
	}
}

// TestSiteProfileGobRoundTrip: a tagged exchange carries the profile
// payload intact.
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
	back := gobRoundTrip(t, resp)
	if !reflect.DeepEqual(back.Profile, resp.Profile) {
		t.Errorf("profile lost on the wire: %+v", back.Profile)
	}
}

// TestValueGobProperty: arbitrary values survive the wire exactly.
func TestValueGobProperty(t *testing.T) {
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
		req := &Request{Op: OpLoad, Rel: "t", Data: rel}
		back := gobRoundTrip(t, req)
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
	req := &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(3)}
	back := gobRoundTrip(t, req)
	if i, ok := back.Data.Schema.Lookup("s"); !ok || i != 2 {
		t.Errorf("lookup after wire: %d %v", i, ok)
	}
}

// TestLargeRelationWire pushes a bigger payload through to catch stream
// framing issues.
func TestLargeRelationWire(t *testing.T) {
	rel := sampleRelation(20000)
	req := &Request{Op: OpLoad, Rel: "big", Data: rel}
	back := gobRoundTrip(t, req)
	if back.Data.Len() != rel.Len() {
		t.Fatalf("large relation: %d rows, want %d", back.Data.Len(), rel.Len())
	}
	if !value.Equal(back.Data.Rows[19999][0], rel.Rows[19999][0]) {
		t.Error("tail row corrupted")
	}
}
