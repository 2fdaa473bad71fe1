package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	o.Count("x", 1)
	o.SetGauge("g", 2)
	o.Observe("h", 3)
	o.Event(EventRetry, "s", "msg", nil)
	ctx, span := o.StartSpanTrack(context.Background(), "q", "")
	span.SetArg("k", "v")
	span.End()
	if ctx == nil {
		t.Fatal("nil Obs returned nil context")
	}
	var s *Span
	s.SetArg("k", "v")
	s.End()
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	r.Gauge("g").Set(7)
	r.Gauge("g").Set(4)
	if got := r.CounterValue("a"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	if got := r.Gauge("g").Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 40, 41}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 107 || s.Min != 0 || s.Max != 100 {
		t.Errorf("snapshot = %+v", s)
	}
	// Only non-empty buckets are emitted, in ascending le order.
	var prev int64 = -1
	var n int64
	for _, b := range s.Buckets {
		if b.Le <= prev {
			t.Errorf("buckets not ascending: %+v", s.Buckets)
		}
		prev = b.Le
		n += b.N
	}
	if n != 5 {
		t.Errorf("bucket counts sum to %d, want 5", n)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("c." + name).Add(int64(len(name)))
			r.Gauge("g." + name).Set(1)
			r.Histogram("h." + name).Observe(10)
		}
		data, err := r.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !bytes.Equal(a, b) {
		t.Errorf("insertion order changed encoding:\n%s\nvs\n%s", a, b)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if snap.Counters["c.alpha"] != 5 || len(snap.Histograms) != 3 {
		t.Errorf("decoded snapshot %+v", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c").Add(1)
				r.Histogram("h").Observe(int64(j))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.CounterValue("c"); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 6; i++ {
		l.Append(EventRetry, "s", "m", map[string]string{"i": string(rune('0' + i))})
	}
	events := l.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	for i, e := range events {
		// Seqs are 0-based; the two oldest (0, 1) were evicted.
		if want := int64(i + 2); e.Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	l.Append(EventChaos, "s2", "x", nil)
	by := l.ByKind(EventChaos)
	if len(by) != 1 || by[0].Site != "s2" {
		t.Errorf("ByKind = %+v", by)
	}
}

func TestTracerChromeExport(t *testing.T) {
	tr := NewTracer()
	now := time.Unix(0, 0)
	tr.SetNow(func() time.Time { return now })

	ctx := context.Background()
	ctx, q := tr.Start(ctx, "query", TrackCoordinator)
	now = now.Add(time.Millisecond)
	rctx, round := tr.Start(ctx, "round:step 1", "") // inherits coordinator track
	now = now.Add(time.Millisecond)
	_, rpc := tr.Start(rctx, "rpc:evalRounds", SiteTrack("site0"))
	now = now.Add(2 * time.Millisecond)
	rpc.End()
	round.End()
	now = now.Add(time.Millisecond)
	q.SetArg("rows", "42")
	q.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, buf.Bytes())
	}
	type spanBox struct {
		ts, dur float64
		tid     int
	}
	spans := map[string]spanBox{}
	tracks := map[string]bool{}
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			spans[e.Name] = spanBox{e.Ts, e.Dur, e.Tid}
		case "M":
			tracks[e.Args["name"]] = true
		}
	}
	q2, r2, p2 := spans["query"], spans["round:step 1"], spans["rpc:evalRounds"]
	if !(q2.ts <= r2.ts && r2.ts+r2.dur <= q2.ts+q2.dur) {
		t.Errorf("round does not nest in query: %+v vs %+v", r2, q2)
	}
	if !(r2.ts <= p2.ts && p2.ts+p2.dur <= r2.ts+r2.dur) {
		t.Errorf("rpc does not nest in round: %+v vs %+v", p2, r2)
	}
	if q2.tid != r2.tid {
		t.Errorf("round inherited track mismatch: tid %d vs %d", r2.tid, q2.tid)
	}
	if p2.tid == q2.tid {
		t.Error("rpc span should be on its own site track")
	}
	if !tracks[TrackCoordinator] || !tracks["site:site0"] {
		t.Errorf("track metadata missing: %v", tracks)
	}
}

func TestTracerCap(t *testing.T) {
	tr := NewTracer()
	tr.max = 2
	for i := 0; i < 5; i++ {
		_, s := tr.Start(context.Background(), "s", "")
		s.End()
	}
	if tr.Len() != 2 {
		t.Errorf("len=%d, want the cap 2", tr.Len())
	}
}

func TestDebugServer(t *testing.T) {
	o := New()
	o.Count("site.rounds_served", 3)
	o.Event(EventFailover, "site1", "failing over", map[string]string{"to": "1"})
	_, span := o.StartSpanTrack(context.Background(), "query", "")
	span.End()

	srv, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Counters["site.rounds_served"] != 3 {
		t.Errorf("/metrics counters = %+v", snap.Counters)
	}

	var events []Event
	if err := json.Unmarshal(get("/events"), &events); err != nil {
		t.Fatalf("/events: %v", err)
	}
	if len(events) != 1 || events[0].Kind != EventFailover {
		t.Errorf("/events = %+v", events)
	}
	if err := json.Unmarshal(get("/events?kind=chaos"), &events); err != nil {
		t.Fatalf("/events?kind=chaos: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("kind filter leaked %+v", events)
	}

	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("/trace has no events")
	}

	if idx := string(get("/")); !strings.Contains(idx, "/metrics") {
		t.Errorf("index missing endpoint list: %q", idx)
	}

	if _, err := ServeDebug("127.0.0.1:0", nil); err == nil {
		t.Error("ServeDebug accepted nil Obs")
	}
}

// TestTracerSetNowConcurrent is the regression test for a data race found
// by the lockguard analyzer: Start and End used to read Tracer.now without
// t.mu while SetNow writes it under the lock. Run with -race.
func TestTracerSetNowConcurrent(t *testing.T) {
	tr := NewTracer()
	base := time.Unix(0, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			at := base.Add(time.Duration(i) * time.Millisecond)
			tr.SetNow(func() time.Time { return at })
			runtime.Gosched()
		}
	}()
	for i := 0; i < 500; i++ {
		_, span := tr.Start(context.Background(), "q", "")
		span.SetArg("i", "x")
		span.End()
		// Yield so the race is observable even on GOMAXPROCS=1.
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if tr.Len() == 0 {
		t.Fatal("no spans recorded")
	}
}
