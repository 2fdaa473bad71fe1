package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Span names, outermost first. A span is recorded by the benchmark around
// its own call into a layer; nothing inside the program is instrumented.
const (
	spanQuery   = "bench.query"    // one loop iteration of one client
	spanPlan    = "core.plan"      // DetailSchema + Egil.BuildPlan
	spanExecute = "core.execute"   // Coordinator.Execute
	spanCall    = "transport.call" // Client.Call, per site and round
	spanHandle  = "site.handle"    // Handler.Handle, per site and round
)

// span is one timed interval. Times are nanoseconds since the recorder
// was created, so a trace file is self-contained.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Query  string `json:"query,omitempty"`
	Name   string `json:"name"`
	Site   string `json:"site,omitempty"`
	Op     string `json:"op,omitempty"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory while its switch is on. With the switch
// off the wrappers below cost one atomic load per call, so the untraced
// window runs the same code path minus the recording.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	nextID atomic.Int64

	// query and parent name the query and the enclosing core.* span of the
	// single closed-loop client; the client and handler wrappers read them
	// to link their spans. (The serve workload has concurrent clients and
	// no client wrapper; its site spans carry the wire query ID instead.)
	query  atomic.Pointer[string]
	parent atomic.Int64

	mu sync.Mutex
	//lint:guarded-by mu
	spans []span
	// capture is the request/response pair the layer probes replay: the
	// first evalRounds exchange site0 handled at captureRound while on.
	//
	//lint:guarded-by mu
	capture *exchange
	// captureRound is set before the recorder is switched on.
	captureRound int
}

// exchange is one captured request/response pair.
type exchange struct {
	req  *transport.Request
	resp *transport.Response
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// open starts a span; finish records it.
func (r *recorder) open(name string, parent int64, query string) span {
	return span{ID: r.nextID.Add(1), Parent: parent, Query: query, Name: name, Start: r.now()}
}

func (r *recorder) finish(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and the captured exchange, and clears
// the recorder.
func (r *recorder) take() ([]span, *exchange) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans, ex := r.spans, r.capture
	r.spans, r.capture = nil, nil
	return spans, ex
}

func (r *recorder) currentQuery() string {
	if q := r.query.Load(); q != nil {
		return *q
	}
	return ""
}

// tracedClient wraps a site client: it records a transport.call span per
// exchange and publishes the span's ID in slot so the same site's handler
// wrapper can parent its site.handle span under it.
type tracedClient struct {
	transport.Client
	rec  *recorder
	slot *atomic.Int64
}

func (c *tracedClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if !c.rec.on.Load() {
		return c.Client.Call(ctx, req)
	}
	s := c.rec.open(spanCall, c.rec.parent.Load(), c.rec.currentQuery())
	s.Site, s.Op, s.Round = c.SiteID(), req.Op.String(), req.Round
	c.slot.Store(s.ID)
	resp, err := c.Client.Call(ctx, req)
	c.slot.Store(0)
	c.rec.finish(s)
	return resp, err
}

// tracedHandler wraps a site engine on the server side of the socket. It
// always counts exchanges (the transport.messages counter) and, while the
// recorder is on, records a site.handle span per request.
type tracedHandler struct {
	inner    transport.Handler
	site     string
	rec      *recorder
	slot     *atomic.Int64
	requests *atomic.Int64
}

func (h *tracedHandler) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	h.requests.Add(1)
	if !h.rec.on.Load() {
		return h.inner.Handle(ctx, req)
	}
	query := req.QueryID
	if query == "" {
		query = h.rec.currentQuery()
	}
	s := h.rec.open(spanHandle, h.slot.Load(), query)
	s.Site, s.Op, s.Round = h.site, req.Op.String(), req.Round
	resp := h.inner.Handle(ctx, req)
	h.rec.finish(s)
	if h.site == "site0" && req.Op == transport.OpEvalRounds && req.Round == h.rec.captureRound {
		h.rec.mu.Lock()
		if h.rec.capture == nil {
			h.rec.capture = &exchange{req: req, resp: resp}
		}
		h.rec.mu.Unlock()
	}
	return resp
}

// layerTimes is the per-query decomposition of the traced window, in
// milliseconds per query. The wall-clock fields apply one rule at every
// level: a layer's self time is the union of its spans minus the union of
// its children's spans, so parallel spans count once and the fields sum to
// the bench.query wall time. The busy fields instead add up every site's
// goroutine time.
type layerTimes struct {
	Queries int     // bench.query spans analysed
	WallMs  float64 // mean bench.query duration

	PlanMs     float64 // core.plan minus its calls
	ExecSelfMs float64 // core.execute minus its calls: request build, merge, assembly
	TransMs    float64 // some call in flight, no site handling: codec, socket, scheduling
	SiteMs     float64 // at least one site handling
	// NonsiteMs is the serve workload's whole gap between a query's wall
	// time and the time some site was handling it (parse, plan, admission,
	// pool, transport, merge): there the client stack is built inside
	// skalla.Connect, out of the benchmark's reach.
	NonsiteMs float64
	// UnaccountedMs is what no program layer owns: the harness's own
	// bench.query self time, and serve queries no site span matched.
	UnaccountedMs float64

	TransBusyMs float64 // all sites: Σ (call − handle)
	SiteBusyMs  float64 // all sites: Σ handle
	CallSpans   int     // transport.call spans
	SiteSpans   int     // site.handle spans
	// Unmatched counts serve site-span groups no bench.query span could
	// be found for; they are left out of the wall-clock fields.
	Unmatched int
}

// accounted is the share of bench.query wall time the decomposition sums
// to; the recorder is sound when it is within 2% of 1.
func (l layerTimes) accounted() float64 {
	if l.WallMs == 0 {
		return 0
	}
	return (l.PlanMs + l.ExecSelfMs + l.TransMs + l.SiteMs + l.NonsiteMs + l.UnaccountedMs) / l.WallMs
}

// unionLen is the total length the spans cover inside [lo, hi], counting
// overlapping spans once.
func unionLen(spans []span, lo, hi int64) int64 {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	var total int64
	cur := lo
	for _, x := range sorted {
		s, e := max(x.Start, cur), min(x.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) int64 {
	return s.dur() - unionLen(children, s.Start, s.End)
}

// analyze decomposes the traced window into per-query layer times. For the
// serve workload it also resolves, in place, the Parent of each site.handle
// span and the Query of each bench.query span it could match.
func analyze(spans []span) layerTimes {
	children := map[int64][]span{}
	var roots []int              // indices of bench.query spans
	groups := map[string][]int{} // serve: wire query ID → indices of its site.handle spans
	var l layerTimes
	var t struct{ wall, plan, exec, trans, site, nonsite, unacc, transBusy, siteBusy int64 }
	for i, s := range spans {
		switch {
		case s.Name == spanQuery:
			roots = append(roots, i)
		case s.Parent != 0:
			children[s.Parent] = append(children[s.Parent], s)
		case s.Name == spanHandle && s.Query != "":
			groups[s.Query] = append(groups[s.Query], i)
		case s.Name == spanHandle:
			// A serve schema fetch: it carries no query ID on the wire, so
			// its microseconds stay in the owning query's non-site time.
			l.SiteSpans++
			t.siteBusy += s.dur()
		}
	}
	l.Queries = len(roots)
	if l.Queries == 0 {
		return l
	}

	for _, ri := range roots {
		root := spans[ri]
		t.wall += root.dur()
		kids := children[root.ID]
		if len(kids) == 0 {
			continue // serve workload: matched to its site spans below
		}
		t.unacc += selfTime(root, kids)
		for _, k := range kids { // core.plan and core.execute
			calls := children[k.ID]
			var handles []span
			for _, c := range calls {
				hs := children[c.ID]
				handles = append(handles, hs...)
				t.transBusy += c.dur()
				for _, h := range hs {
					t.transBusy -= h.dur()
					t.siteBusy += h.dur()
				}
			}
			l.CallSpans += len(calls)
			l.SiteSpans += len(handles)
			inCalls := unionLen(calls, k.Start, k.End)
			inHandles := unionLen(handles, k.Start, k.End)
			if k.Name == spanPlan {
				t.plan += k.dur() - inCalls
			} else {
				t.exec += k.dur() - inCalls
			}
			t.trans += inCalls - inHandles
			t.site += inHandles
		}
	}

	// Serve workload: a group is the site.handle spans of one wire query
	// ID. It belongs to the earliest-starting unclaimed bench.query span
	// that contains it; two concurrent clients make at most two
	// candidates, and taking groups in serve-epoch order (the order the
	// service admitted them) breaks that tie.
	sort.Slice(roots, func(a, b int) bool { return spans[roots[a]].Start < spans[roots[b]].Start })
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		group := make([]span, len(groups[id]))
		lo, hi := spans[groups[id][0]].Start, spans[groups[id][0]].End
		for gi, i := range groups[id] {
			group[gi] = spans[i]
			lo, hi = min(lo, spans[i].Start), max(hi, spans[i].End)
		}
		owner := -1
		for _, ri := range roots {
			if r := spans[ri]; r.Query == "" && r.Start <= lo && hi <= r.End {
				owner = ri
				break
			}
		}
		if owner < 0 {
			l.Unmatched++
			continue
		}
		spans[owner].Query = id
		for _, i := range groups[id] {
			spans[i].Parent = spans[owner].ID
			t.siteBusy += spans[i].dur()
		}
		l.SiteSpans += len(group)
		handling := unionLen(group, lo, hi)
		t.site += handling
		t.nonsite += spans[owner].dur() - handling
	}
	for _, ri := range roots {
		if r := spans[ri]; len(children[r.ID]) == 0 && r.Query == "" {
			t.unacc += r.dur() // a query none of whose site spans were seen
		}
	}

	perQuery := func(ns int64) float64 { return float64(ns) / 1e6 / float64(l.Queries) }
	l.WallMs = perQuery(t.wall)
	l.PlanMs, l.ExecSelfMs = perQuery(t.plan), perQuery(t.exec)
	l.TransMs, l.SiteMs = perQuery(t.trans), perQuery(t.site)
	l.NonsiteMs, l.UnaccountedMs = perQuery(t.nonsite), perQuery(t.unacc)
	l.TransBusyMs, l.SiteBusyMs = perQuery(t.transBusy), perQuery(t.siteBusy)
	return l
}

// traceFile is the layout of out/trace_<workload>.json.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Layers   layerTimes `json:"layers_ms_per_query"`
	Probes   []probe    `json:"probes"`
	Spans    []span     `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace_"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
