// Package obs is the observability subsystem of the Skalla reproduction:
// a stdlib-only metrics registry (counters, gauges, log-scale histograms),
// a span tracer with a Chrome trace_event exporter, and a bounded
// in-memory event log for discrete incidents (retries, failovers, chaos
// injections, partial-result degradations).
//
// The paper's evaluation is an argument about where time and bytes go per
// synchronization round; obs makes that story visible on a *running*
// system instead of only in a one-shot ExecStats printout. Transport
// clients publish wire totals, the retry and replica layers publish
// retry/failover activity, site engines publish rounds served and compute histograms,
// and the coordinator publishes per-round byte and group counters that
// match ExecStats exactly.
//
// All of Obs's helper methods are nil-receiver safe: a component holding
// a nil *Obs publishes nothing at almost zero cost, so observability is
// strictly opt-in and the hot paths carry no mandatory overhead.
//
// Surface it with ServeDebug (the /metrics, /events, and /trace HTTP
// endpoints used by the -debug-addr flags of skalla-site and
// skalla-coord) or programmatically via Registry.Snapshot,
// EventLog.Events, and Tracer.WriteChromeTrace.
package obs

import (
	"context"
	"encoding/json"
)

// Obs bundles the observability pillars. Components accept a *Obs and
// publish through its nil-safe helpers.
type Obs struct {
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Tracer records spans for the Chrome trace timeline.
	Tracer *Tracer
	// Events is the bounded incident log.
	Events *EventLog
	// Health is the readiness state behind /healthz and /readyz.
	Health *Health
	// Profiles is the bounded last-N execution-profile ring behind
	// /profiles (per-query profiles on a coordinator, per-request
	// profiles on a site).
	Profiles *ProfileLog
}

// New returns an Obs with a fresh registry, tracer, event log, profile
// ring, and a ready health state.
func New() *Obs {
	return &Obs{
		Metrics:  NewRegistry(),
		Tracer:   NewTracer(),
		Events:   NewEventLog(DefaultEventCap),
		Health:   NewHealth(),
		Profiles: NewProfileLog(DefaultProfileCap),
	}
}

// Default is the shared process-wide instance used by daemons that want
// one registry across all their components (e.g. cmd/skalla-site).
// Libraries never publish to Default implicitly; it must be injected.
var Default = New()

// Count adds delta to the named counter. Safe on a nil receiver.
func (o *Obs) Count(name string, delta int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Counter(name).Add(delta)
}

// SetGauge sets the named gauge. Safe on a nil receiver.
func (o *Obs) SetGauge(name string, v int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Gauge(name).Set(v)
}

// Observe records v into the named histogram. Safe on a nil receiver.
func (o *Obs) Observe(name string, v int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Histogram(name).Observe(v)
}

// SetNotReady flips the health state to not-ready with a reason. Safe on
// a nil receiver.
func (o *Obs) SetNotReady(reason string) {
	if o == nil || o.Health == nil {
		return
	}
	o.Health.SetNotReady(reason)
}

// AddProfile appends one pre-encoded execution profile to the profile
// ring. Safe on a nil receiver.
func (o *Obs) AddProfile(p json.RawMessage) {
	if o == nil || o.Profiles == nil {
		return
	}
	o.Profiles.Add(p)
}

// Event appends an incident to the event log. Safe on a nil receiver.
func (o *Obs) Event(kind, site, msg string, fields map[string]string) {
	if o == nil || o.Events == nil {
		return
	}
	o.Events.Append(kind, site, msg, fields)
}

// StartSpanTrack opens a span on an explicit track (one horizontal lane
// of the Chrome trace timeline, e.g. "coordinator" or "site:site0").
// Safe on a nil receiver.
func (o *Obs) StartSpanTrack(ctx context.Context, name, track string) (context.Context, *Span) {
	if o == nil || o.Tracer == nil {
		return ctx, nil
	}
	return o.Tracer.Start(ctx, name, track)
}
