package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TrackDefault is the track of root spans started without an explicit
// track.
const TrackDefault = "main"

// TrackCoordinator is the conventional track name for coordinator-side
// spans (query, rounds, synchronization).
const TrackCoordinator = "coordinator"

// SiteTrack returns the conventional track name for spans of one site's
// RPCs, so every site renders as its own parallel lane on the timeline.
func SiteTrack(siteID string) string { return "site:" + siteID }

// DefaultSpanCap bounds the number of retained finished spans.
const DefaultSpanCap = 1 << 16

// spanRecord is one finished span.
type spanRecord struct {
	name    string
	track   string
	startNs int64 // relative to tracer start
	durNs   int64
	args    map[string]string
}

// Tracer records spans and exports them in the Chrome trace_event format,
// so one distributed round trip — query, plan, rounds, per-site RPCs,
// synchronization — renders on a single chrome://tracing / Perfetto
// timeline. Tracks map to Chrome thread lanes; spans on one track nest by
// time containment.
type Tracer struct {
	mu sync.Mutex
	//lint:guarded-by mu
	epoch time.Time
	//lint:guarded-by mu
	spans []spanRecord
	//lint:guarded-by mu
	max int
	//lint:guarded-by mu
	now func() time.Time
}

// clock returns the tracer's current clock function. Start and End read
// the clock through here so a concurrent SetNow (which writes t.now under
// t.mu) never races with span timestamping.
func (t *Tracer) clock() func() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now
}

// NewTracer returns a tracer retaining up to DefaultSpanCap spans.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), max: DefaultSpanCap, now: time.Now}
}

// SetNow overrides the tracer's clock and restarts the epoch at the new
// clock's current time (tests inject virtual time).
func (t *Tracer) SetNow(f func() time.Time) {
	t.mu.Lock()
	t.now = f
	t.epoch = f()
	t.mu.Unlock()
}

// spanCtxKey carries the active span through a context.
type spanCtxKey struct{}

// Span is one in-flight span. A nil *Span is a valid no-op, so callers
// never need to guard End or SetArg.
type Span struct {
	tracer *Tracer
	name   string
	track  string
	start  time.Time

	mu sync.Mutex
	//lint:guarded-by mu
	args map[string]string
	//lint:guarded-by mu
	ended bool
}

// Start opens a span. With track empty the span inherits the track of the
// context's active span (TrackDefault at the root). The returned context
// carries the new span, so nested Start calls land on the same track.
func (t *Tracer) Start(ctx context.Context, name, track string) (context.Context, *Span) {
	if track == "" {
		if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
			track = parent.track
		} else {
			track = TrackDefault
		}
	}
	s := &Span{tracer: t, name: name, track: track, start: t.clock()()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SetArg attaches a key/value detail rendered in the trace viewer's
// argument pane. Safe on a nil receiver.
func (s *Span) SetArg(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = map[string]string{}
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End finishes the span and records it. Safe on a nil receiver; double
// End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	s.mu.Unlock()

	t := s.tracer
	end := t.clock()()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		return
	}
	t.spans = append(t.spans, spanRecord{
		name:    s.name,
		track:   s.track,
		startNs: s.start.Sub(t.epoch).Nanoseconds(),
		durNs:   end.Sub(s.start).Nanoseconds(),
		args:    args,
	})
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one trace_event entry. Complete spans use ph "X"
// (ts + dur, microseconds); thread metadata uses ph "M".
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the containing object Perfetto and chrome://tracing load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the retained spans as Chrome trace_event JSON.
// Each track becomes one thread lane (named via metadata events); spans
// are sorted by start time then duration (longest first) so parents
// precede children and the export is stable regardless of goroutine
// completion order.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].startNs != spans[j].startNs {
			return spans[i].startNs < spans[j].startNs
		}
		return spans[i].durNs > spans[j].durNs
	})

	// Assign tids in first-appearance order of the sorted spans; track
	// names sort the lanes in the viewer via the sort_index convention.
	tids := map[string]int{}
	var trackOrder []string
	for _, s := range spans {
		if _, ok := tids[s.track]; !ok {
			tids[s.track] = len(tids) + 1
			trackOrder = append(trackOrder, s.track)
		}
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, track := range trackOrder {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[track],
			Args: map[string]string{"name": track},
		})
	}
	for _, s := range spans {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.startNs) / 1e3,
			Dur: float64(s.durNs) / 1e3,
			Pid: 1, Tid: tids[s.track],
			Args: s.args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: encode chrome trace: %w", err)
	}
	return nil
}
