package obs

import (
	"sync/atomic"
	"time"
)

// Event kinds published by the built-in components. The log accepts any
// string kind; these constants keep producers and test assertions in
// agreement.
const (
	// EventRetry: a transport attempt failed and will be retried at the
	// same endpoint (fields: op, attempt, endpoint, error).
	EventRetry = "retry"
	// EventFailover: retries at one endpoint were exhausted and the call
	// moved to the next replica (fields: op, from, to).
	EventFailover = "failover"
	// EventRedial: a dial to the current endpoint failed (fields:
	// endpoint, error).
	EventRedial = "redial"
	// EventChaos: a replica's fault schedule (transport.Chaos) injected a
	// fault into a call on one of its connections (fields: op, fault).
	EventChaos = "chaos"
	// EventSiteLost: a site contributed nothing to a round (fields:
	// round, error).
	EventSiteLost = "site-lost"
	// EventPartial: a query completed as a degraded partial result
	// (fields: lost).
	EventPartial = "partial"
	// EventDrain: a server started or finished graceful drain (fields:
	// phase, inflight).
	EventDrain = "drain"
	// EventOverload: a site refused a request whose result exceeds its
	// per-request limits (site.Limits; fields: op, error), or a client
	// failed over because a replica refused or was draining (fields: op,
	// code, from, to).
	EventOverload = "overload"
	// EventCheckpoint: a round checkpoint was written, resumed from, or
	// cleared (fields: epoch, round, action).
	EventCheckpoint = "checkpoint"
	// EventAdmission: the scheduler rejected or timed out a query at the
	// admission boundary instead of letting it pile onto loaded sites
	// (fields: reason, running, queued).
	EventAdmission = "admission"
	// EventSlowQuery: a profiled query's wall time crossed the slow-query
	// threshold (fields: query_id, wall_ms, threshold_ms).
	EventSlowQuery = "slow-query"
	// EventStraggler: one site dominated a round — its compute time was a
	// multiple of the round's median (fields: query_id, round, ratio_x1000).
	EventStraggler = "straggler"
	// EventHedge: a round request exceeded the hedge threshold (or its
	// primary failed) and a duplicate was launched on the next replica
	// (fields: op, reason, round).
	EventHedge = "hedge"
)

// DefaultEventCap bounds the event log of New.
const DefaultEventCap = 1024

// Event is one discrete incident.
type Event struct {
	// Seq increases by one per appended event, including events that were
	// later evicted, so consumers can detect gaps.
	Seq int64 `json:"seq"`
	// Time is the append time.
	Time time.Time `json:"time"`
	// Kind classifies the incident (see the Event* constants).
	Kind string `json:"kind"`
	// Site is the logical site involved, when there is one.
	Site string `json:"site,omitempty"`
	// Msg is a human-readable one-liner.
	Msg string `json:"msg,omitempty"`
	// Fields carry structured details.
	Fields map[string]string `json:"fields,omitempty"`
}

// EventLog is a bounded in-memory ring of events: appending beyond the
// capacity evicts the oldest entries, so a long-running daemon's incident
// history stays fresh and its memory stays bounded.
type EventLog struct {
	ring[Event]
	now atomic.Pointer[func() time.Time]
}

// NewEventLog returns an event log evicting beyond capacity (minimum 1).
func NewEventLog(capacity int) *EventLog {
	l := &EventLog{ring: newRing[Event](capacity)}
	l.SetNow(time.Now)
	return l
}

// SetNow overrides the clock (tests inject fixed timestamps).
func (l *EventLog) SetNow(now func() time.Time) { l.now.Store(&now) }

// Append records one event, evicting the oldest if the log is full.
func (l *EventLog) Append(kind, site, msg string, fields map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pushLocked(Event{Seq: l.total, Time: (*l.now.Load())(), Kind: kind, Site: site, Msg: msg, Fields: fields})
}

// Events returns a copy of the retained events, oldest first.
func (l *EventLog) Events() []Event { return l.entries() }

// ByKind returns the retained events of one kind, oldest first.
func (l *EventLog) ByKind(kind string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
