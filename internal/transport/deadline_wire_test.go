package transport

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"repro/internal/relation"
)

// predeadlineRequest mirrors the Request field set before deadline
// propagation existed — everything up to and including QueryID. It
// stands in for a site running the previous protocol version.
type predeadlineRequest struct {
	Op        Op
	Rel       string
	Data      *relation.Relation
	Gen       *GenSpec
	BaseCols  []string
	BaseWhere string
	Detail    string
	Base      *relation.Relation
	Rounds    []RoundSpec
	Epoch     string
	Round     int
	QueryID   string
}

func deadlineSampleRounds() []RoundSpec {
	return []RoundSpec{{
		Detail: "flow", Aggs: [][]string{{"count(*) AS c"}},
		Thetas: []string{"F.SourceAS = B.SourceAS"},
	}}
}

// TestDeadlineWireCompat verifies the compatibility rule of the
// DeadlineNs field: requests without a deadline interoperate with the
// previous protocol version in both directions, and — because gob omits
// zero-valued fields and DeadlineNs is appended after every existing
// field — a deadline-free request costs zero extra bytes on the wire.
func TestDeadlineWireCompat(t *testing.T) {
	req := &Request{
		Op: OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes > 0",
		Rounds: deadlineSampleRounds(),
		Epoch:  "e1", Round: 2, QueryID: "q9",
	}

	// New coordinator → old site: the deadline-free request decodes into
	// the pre-deadline field set with nothing lost.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	plainLen := buf.Len()
	var oldSite predeadlineRequest
	if err := gob.NewDecoder(&buf).Decode(&oldSite); err != nil {
		t.Fatalf("pre-deadline decode of deadline-free request: %v", err)
	}
	if oldSite.Op != req.Op || oldSite.Epoch != "e1" || oldSite.Round != 2 || oldSite.QueryID != "q9" {
		t.Errorf("pre-deadline site saw different request: %+v", oldSite)
	}

	// A stamped request still decodes on the old side — gob skips the
	// unknown field — so deadline-aware coordinators can talk to
	// deadline-oblivious sites; they just lose the shedding.
	buf.Reset()
	stamped := *req
	stamped.DeadlineNs = int64(50 * time.Millisecond)
	if err := gob.NewEncoder(&buf).Encode(&stamped); err != nil {
		t.Fatalf("encode stamped: %v", err)
	}
	stampedLen := buf.Len()
	oldSite = predeadlineRequest{}
	if err := gob.NewDecoder(&buf).Decode(&oldSite); err != nil {
		t.Fatalf("pre-deadline decode of stamped request: %v", err)
	}
	if oldSite.Epoch != "e1" || oldSite.QueryID != "q9" {
		t.Errorf("pre-deadline site saw different stamped request: %+v", oldSite)
	}

	// The deadline is the only thing that costs bytes.
	if stampedLen <= plainLen {
		t.Errorf("stamped request (%d bytes) not longer than deadline-free (%d)", stampedLen, plainLen)
	}

	// Old coordinator → new site: a pre-deadline request decodes with
	// DeadlineNs zero, i.e. "no deadline" — sheds stay off.
	buf.Reset()
	old := &predeadlineRequest{Op: OpEvalBase, Detail: "flow", BaseCols: []string{"SourceAS"}, Epoch: "e2"}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatalf("encode pre-deadline: %v", err)
	}
	var newSite Request
	if err := gob.NewDecoder(&buf).Decode(&newSite); err != nil {
		t.Fatalf("decode pre-deadline request: %v", err)
	}
	if newSite.DeadlineNs != 0 || newSite.Epoch != "e2" || newSite.Op != OpEvalBase {
		t.Errorf("pre-deadline request decoded wrong: %+v", newSite)
	}
}

// secondMessage encodes v twice on one persistent stream and returns the
// bytes of the second message — the steady-state per-request encoding
// once the stream's type descriptors have been paid, which is what the
// transport's long-lived connections ship.
func secondMessage[T any](t *testing.T, v *T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode (descriptor message): %v", err)
	}
	n := buf.Len()
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encode (steady-state message): %v", err)
	}
	return append([]byte(nil), buf.Bytes()[n:]...)
}

// gobValueBytes strips a gob message's header — the byte-count prefix
// and the concrete type id — leaving the encoded value. The type id must
// be excluded from byte comparisons across struct types: gob numbers
// types from a process-global registry, so two protocol versions
// coexisting in one test binary get different ids even though each is
// the first (and identically numbered) user type in its own process.
func gobValueBytes(t *testing.T, msg []byte) []byte {
	t.Helper()
	for i := 0; i < 2; i++ { // message length, then type id
		if len(msg) == 0 {
			t.Fatal("truncated gob message")
		}
		if b := msg[0]; b <= 0x7f {
			msg = msg[1:]
		} else {
			msg = msg[1+(256-int(b)):]
		}
	}
	return msg
}

// TestDeadlineFreeRequestByteIdentical pins the strongest form of the
// compatibility claim: on a persistent connection, a request with no
// deadline encodes to exactly the bytes the pre-deadline protocol
// produced. DeadlineNs is the last field and gob omits zero fields, so
// every preceding field keeps its wire position.
func TestDeadlineFreeRequestByteIdentical(t *testing.T) {
	cur := &Request{
		Op: OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes > 0",
		Rounds: deadlineSampleRounds(),
		Epoch:  "e1", Round: 2, QueryID: "q9",
	}
	old := &predeadlineRequest{
		Op: OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS"}, BaseWhere: "F.NumBytes > 0",
		Rounds: deadlineSampleRounds(),
		Epoch:  "e1", Round: 2, QueryID: "q9",
	}
	curMsg := gobValueBytes(t, secondMessage(t, cur))
	oldMsg := gobValueBytes(t, secondMessage(t, old))
	if !bytes.Equal(curMsg, oldMsg) {
		t.Errorf("deadline-free request not byte-identical to the pre-deadline encoding:\n new: %x\n old: %x", curMsg, oldMsg)
	}

	// Sanity: the stamped variant diverges, so the comparison is live.
	stamped := *cur
	stamped.DeadlineNs = 1
	if bytes.Equal(gobValueBytes(t, secondMessage(t, &stamped)), oldMsg) {
		t.Error("stamped request unexpectedly byte-identical to the pre-deadline encoding")
	}
}
