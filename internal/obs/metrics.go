package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations v with v <= 2^i - 1 (bucket 0 holds v <= 0), so the
// scale is logarithmic with fixed power-of-two boundaries and snapshots
// from different processes are always comparable bucket by bucket.
const histBuckets = 64

// Histogram accumulates int64 observations into fixed log-scale buckets.
// Typical uses record nanosecond durations or byte sizes.
type Histogram struct {
	mu sync.Mutex
	//lint:guarded-by mu
	count int64
	//lint:guarded-by mu
	sum int64
	//lint:guarded-by mu
	min int64
	//lint:guarded-by mu
	max int64
	//lint:guarded-by mu
	buckets [histBuckets]int64
}

// bucketOf returns the bucket index for v: 0 for v <= 0, else
// 1 + floor(log2(v)) capped at the last bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// BucketCount is one non-empty histogram bucket: N observations with
// value <= Le.
type BucketCount struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Buckets are
// ascending by upper bound and include only non-empty buckets.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := int64(0)
		if i > 0 {
			if i >= 63 {
				le = math.MaxInt64
			} else {
				le = int64(1)<<uint(i) - 1
			}
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, N: n})
	}
	return s
}

// Registry holds named metrics. Metric accessors create on first use, so
// publishing code never registers up front; names are flat dot-separated
// paths ("coord.bytes_to_sites").
type Registry struct {
	mu sync.Mutex
	//lint:guarded-by mu
	counters map[string]*Counter
	//lint:guarded-by mu
	gauges map[string]*Gauge
	//lint:guarded-by mu
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the named counter's value, or 0 if it was never
// touched (without creating it) — convenient for test assertions.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}
