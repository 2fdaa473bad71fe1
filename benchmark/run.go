package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/skalla"
)

// window is what one measurement window observed.
type window struct {
	wall      time.Duration
	latencies []float64 // ms, ascending, completed correct operations only
	// byOp holds the same latencies per operation kind (ascending): a mix
	// of cheap and dear statements has a many-humped distribution whose
	// pooled median jumps between humps, so the median is taken per kind.
	byOp      [][]float64
	attempted int
	failed    int // errors + refusals + wrong results
	rejected  int // admission refusals (serve)
	shed      int // site-side load shedding (serve)
	allocB    uint64
	gcCycles  uint32
	gcPauseNs uint64
	wireB     int64
	messages  int64
	firstErr  error
}

func (w window) ok() int { return len(w.latencies) }

// perQuery divides a window total by the completed operations.
func (w window) perQuery(total float64) float64 {
	if w.ok() == 0 {
		return 0
	}
	return total / float64(w.ok())
}

// runWindow drives the workload closed-loop for d: every client issues its
// next operation only after the previous one returned. Each result's row
// count is checked against the oracle. Client k starts k/clients of the
// way through the operation cycle so concurrent clients run a mix.
func runWindow(e *env, want []expected, d time.Duration) window {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	wire0, msg0 := e.wireBytes.Load(), e.messages.Load()

	var mu sync.Mutex
	n := len(want) // operation kinds a client cycles through
	w := window{byOp: make([][]float64, n)}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < e.w.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lat := make([][]float64, n)
			var local window
			for op := k * n / e.w.clients; time.Now().Before(deadline); op = (op + 1) % n {
				t0 := time.Now()
				rel, err := e.runOne(context.Background(), op)
				el := time.Since(t0)
				local.attempted++
				switch {
				case err != nil:
					local.failed++
					switch {
					case errors.Is(err, skalla.ErrAdmission):
						local.rejected++
					case errors.Is(err, transport.ErrOverloaded), errors.Is(err, transport.ErrDraining):
						local.shed++
					}
					if local.firstErr == nil {
						local.firstErr = err
					}
				case rel.Len() != want[op].rows:
					local.failed++
				default:
					lat[op] = append(lat[op], float64(el)/float64(time.Millisecond))
				}
			}
			mu.Lock()
			for op := range lat {
				w.byOp[op] = append(w.byOp[op], lat[op]...)
				w.latencies = append(w.latencies, lat[op]...)
			}
			w.attempted += local.attempted
			w.failed += local.failed
			w.rejected += local.rejected
			w.shed += local.shed
			if w.firstErr == nil {
				w.firstErr = local.firstErr
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	w.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	w.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	w.wireB = e.wireBytes.Load() - wire0
	w.messages = e.messages.Load() - msg0
	sort.Float64s(w.latencies)
	for _, l := range w.byOp {
		sort.Float64s(l)
	}
	return w
}

// p50 is the median latency of the window: the mean, over the operation
// kinds that completed, of each kind's median. With one kind it is the
// plain median.
func (w window) p50() float64 {
	var sum float64
	kinds := 0
	for _, l := range w.byOp {
		if len(l) > 0 {
			sum += percentile(l, 50)
			kinds++
		}
	}
	return sum / float64(kinds)
}

// verify runs every operation once and compares the full result with the
// oracle byte for byte. It returns a checksum of the bytes the system
// returned; equal seeds must give equal checksums.
func verify(e *env, want []expected) (uint64, error) {
	h := fnv.New64a()
	for op := range want {
		rel, err := e.runOne(context.Background(), op)
		if err != nil {
			return 0, err
		}
		got, err := canonical(rel, e.ordered(op))
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, want[op].bytes) {
			return 0, fmt.Errorf("operation %d: result differs from the oracle (%d rows, %d bytes; want %d rows, %d bytes)",
				op, rel.Len(), len(got), want[op].rows, len(want[op].bytes))
		}
		h.Write(got)
	}
	return h.Sum64(), nil
}
