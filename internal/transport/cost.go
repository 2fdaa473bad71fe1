package transport

import (
	"context"
	"sync"
	"time"
)

// CostModel models a wide-area link between coordinator and site. The
// paper's experiments ran on a LAN of workstations where communication is
// a first-order cost; on a single machine real TCP over loopback is far
// too fast to reproduce that, so the harness attributes a modeled transfer
// time to every message based on its measured byte size. The model only
// accounts time; it never delays a message.
type CostModel struct {
	// LatencyPerMsg is the fixed per-message cost (propagation + RPC
	// overhead), applied to each request and each response.
	LatencyPerMsg time.Duration
	// BytesPerSec is the link bandwidth; 0 means infinite.
	BytesPerSec float64
}

// DefaultWAN is a 10 Mbit/s, 2 ms link — the rough shape of the paper-era
// distributed warehouse interconnect.
var DefaultWAN = CostModel{LatencyPerMsg: 2 * time.Millisecond, BytesPerSec: 10e6 / 8}

// TransferTime returns the modeled time to move n bytes one way.
func (c CostModel) TransferTime(n int) time.Duration {
	d := c.LatencyPerMsg
	if c.BytesPerSec > 0 {
		d += time.Duration(float64(n) / c.BytesPerSec * float64(time.Second))
	}
	return d
}

// WireStats accumulates per-client communication statistics. It is safe
// for concurrent use.
type WireStats struct {
	mu sync.Mutex
	//lint:guarded-by mu
	bytesSent int64
	//lint:guarded-by mu
	bytesReceived int64
	//lint:guarded-by mu
	messages int64
	//lint:guarded-by mu
	commTime time.Duration
	// hedges counts the speculative duplicate sends launched on behalf of
	// this client's calls; only a hedging layer ever adds to it.
	//
	//lint:guarded-by mu
	hedges int
	// retries counts the re-sends a retry layer needed before this
	// client's calls succeeded; only a retry layer ever adds to it.
	//
	//lint:guarded-by mu
	retries int
}

// Delta is what one or more exchanges added to a client's statistics:
// the unit every accounting layer (retry, hedge, pooled lease, the
// coordinator's per-round record) folds upward.
type Delta struct {
	Sent, Recv int64
	Comm       time.Duration
	Hedges     int
	Retries    int
}

// Exchange performs one call on cl and returns, beside the outcome, what
// the call added to cl's statistics. It is exact while calls on cl do not
// overlap — true of every per-execution client view, whose statistics
// are private to one execution.
func Exchange(ctx context.Context, cl Client, req *Request) (*Response, Delta, error) {
	before := cl.Stats().Totals()
	resp, err := cl.Call(ctx, req)
	after := cl.Stats().Totals()
	return resp, Delta{
		Sent: after.Sent - before.Sent, Recv: after.Recv - before.Recv,
		Comm: after.Comm - before.Comm, Hedges: after.Hedges - before.Hedges,
		Retries: after.Retries - before.Retries,
	}, err
}

// Add folds an inner client's exchange into these statistics as one
// message, preserving its comm-time accounting without re-sleeping.
func (w *WireStats) Add(d Delta) {
	w.mu.Lock()
	w.bytesSent += d.Sent
	w.bytesReceived += d.Recv
	if d.Sent > 0 {
		w.messages++
	}
	w.commTime += d.Comm
	w.hedges += d.Hedges
	w.retries += d.Retries
	w.mu.Unlock()
}

// Totals returns everything accumulated so far as one Delta.
func (w *WireStats) Totals() Delta {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Delta{Sent: w.bytesSent, Recv: w.bytesReceived, Comm: w.commTime, Hedges: w.hedges, Retries: w.retries}
}

// AddSent records n bytes sent plus its modeled transfer time.
func (w *WireStats) AddSent(n int, c CostModel) {
	d := c.TransferTime(n)
	w.mu.Lock()
	w.bytesSent += int64(n)
	w.messages++
	w.commTime += d
	w.mu.Unlock()
}

// AddReceived records n bytes received plus its modeled transfer time.
func (w *WireStats) AddReceived(n int, c CostModel) {
	d := c.TransferTime(n)
	w.mu.Lock()
	w.bytesReceived += int64(n)
	w.commTime += d
	w.mu.Unlock()
}

// Snapshot returns the current totals.
func (w *WireStats) Snapshot() (sent, received, messages int64, commTime time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytesSent, w.bytesReceived, w.messages, w.commTime
}

// Bytes returns total bytes moved in both directions.
func (w *WireStats) Bytes() int64 {
	s, r, _, _ := w.Snapshot()
	return s + r
}

// CommTime returns the accumulated modeled communication time.
func (w *WireStats) CommTime() time.Duration {
	_, _, _, d := w.Snapshot()
	return d
}

// Reset zeroes the statistics.
func (w *WireStats) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytesSent, w.bytesReceived, w.messages, w.commTime, w.hedges, w.retries = 0, 0, 0, 0, 0, 0
}

// countingWriter counts bytes written to an underlying writer.
type countingWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader counts bytes read from an underlying reader.
type countingReader struct {
	r interface{ Read([]byte) (int, error) }
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
