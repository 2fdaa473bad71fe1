package transport

import (
	"context"
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

// Delta is the wire traffic of one call: its bytes each way, their
// modeled transfer time, and the re-sends a retry layer and the
// duplicates a hedging layer spent on it. It is the unit every accounting
// layer (retry, hedge, the coordinator's per-round record) folds
// upward.
type Delta struct {
	Sent, Recv int64
	Comm       time.Duration
	Hedges     int
	Retries    int
}

// add folds o into d.
func (d *Delta) add(o Delta) {
	d.Sent += o.Sent
	d.Recv += o.Recv
	d.Comm += o.Comm
	d.Hedges += o.Hedges
	d.Retries += o.Retries
}

// meter is the context an exchange's call runs under: the caller's
// context plus the exchange's own Delta, in one allocation. The layers
// beneath charge the Delta on the goroutine running the call, before the
// call returns, so it needs no lock.
type meter struct {
	context.Context
	d Delta
}

// meterKey finds the innermost meter through a chain of derived contexts.
type meterKey struct{}

// Value implements context.Context.
func (m *meter) Value(key any) any {
	if key == (meterKey{}) {
		return &m.d
	}
	return m.Context.Value(key)
}

// Exchange performs one call on cl and returns, beside the outcome, the
// call's wire traffic. The traffic travels with the call, not with the
// client: the call runs under a context carrying a fresh meter that the
// layers beneath charge, so the count is exact however many calls share
// cl at once.
func Exchange(ctx context.Context, cl Client, req *Request) (*Response, Delta, error) {
	m := &meter{Context: ctx}
	resp, err := cl.Call(m, req)
	return resp, m.d, err
}

// charge adds d to the meter of the exchange ctx belongs to; a call made
// outside any exchange is charged nowhere.
func charge(ctx context.Context, d Delta) {
	if m, ok := ctx.Value(meterKey{}).(*Delta); ok {
		m.add(d)
	}
}
