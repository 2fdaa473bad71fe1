package obs

import (
	"bytes"
	"encoding/json"
)

// DefaultProfileCap bounds the profile ring of New.
const DefaultProfileCap = 64

// ProfileLog is a bounded ring of the last N execution profiles, each a
// pre-encoded JSON document. Producers (the coordinator's query profiles,
// a site engine's per-request profiles) encode deterministically with the
// statsjson conventions — fixed field order, integer nanoseconds, sorted
// site lists — before appending, so the ring itself stays type-agnostic:
// obs never imports core or transport, and /profiles serves both daemons
// with one implementation.
type ProfileLog struct {
	ring[json.RawMessage]
}

// NewProfileLog returns a profile ring evicting beyond capacity
// (minimum 1).
func NewProfileLog(capacity int) *ProfileLog {
	return &ProfileLog{newRing[json.RawMessage](capacity)}
}

// Add appends one encoded profile, evicting the oldest when full. The
// bytes are retained as-is; callers must not mutate them afterwards.
func (l *ProfileLog) Add(p json.RawMessage) {
	if l == nil || len(p) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pushLocked(p)
}

// Profiles returns the retained profiles, oldest first.
func (l *ProfileLog) Profiles() []json.RawMessage {
	if l == nil {
		return nil
	}
	return l.entries()
}

// EncodeJSON renders the retained profiles as one JSON array, oldest
// first. Entries keep their producer's deterministic encoding, so the
// array is byte-identical across runs up to timing fields.
func (l *ProfileLog) EncodeJSON() []byte {
	ps := l.Profiles()
	var b bytes.Buffer
	b.WriteString("[")
	for i, p := range ps {
		if i > 0 {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
		}
		b.Write(bytes.TrimSpace(p))
	}
	if len(ps) > 0 {
		b.WriteString("\n")
	}
	b.WriteString("]")
	return b.Bytes()
}
