package site

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

func baseReq(epoch string, round int) *transport.Request {
	return &transport.Request{
		Op: transport.OpEvalBase, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
		Epoch:    epoch, Round: round,
	}
}

func TestLimitsMaxResultRows(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)
	e.SetLimits(Limits{MaxResultRows: 2}) // base query yields 3 groups

	resp := e.Handle(context.Background(), baseReq("", 0))
	err := resp.Error()
	if err == nil {
		t.Fatal("oversized result not refused")
	}
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("err = %v, want wrapped ErrOverloaded", err)
	}
	if resp.Code != transport.CodeOverloaded {
		t.Errorf("code = %d, want CodeOverloaded", resp.Code)
	}
	if got := o.Metrics.CounterValue("site.overloads"); got != 1 {
		t.Errorf("site.overloads = %d, want 1", got)
	}
	if got := o.Events.CountKind(obs.EventOverload); got != 1 {
		t.Errorf("overload events = %d, want 1", got)
	}

	// Raising the cap lets the same request through.
	e.SetLimits(Limits{MaxResultRows: 3})
	if resp := e.Handle(context.Background(), baseReq("", 0)); resp.Error() != nil {
		t.Fatalf("within-limit request refused: %v", resp.Error())
	}
}

func TestLimitsMaxResultBytes(t *testing.T) {
	e := loadedEngine(t)
	e.SetLimits(Limits{MaxResultBytes: 10}) // 3 groups × 2 int cols ≫ 10 bytes
	resp := e.Handle(context.Background(), baseReq("", 0))
	if !errors.Is(resp.Error(), transport.ErrOverloaded) {
		t.Fatalf("err = %v, want wrapped ErrOverloaded", resp.Error())
	}
	e.SetLimits(Limits{}) // zero = unlimited
	if resp := e.Handle(context.Background(), baseReq("", 0)); resp.Error() != nil {
		t.Fatalf("unlimited request refused: %v", resp.Error())
	}
}

func TestReplayDedup(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)

	first := e.Handle(context.Background(), baseReq("ep1", 0))
	if first.Error() != nil {
		t.Fatal(first.Error())
	}
	// Same (epoch, round): served from cache, not recomputed.
	second := e.Handle(context.Background(), baseReq("ep1", 0))
	if second != first {
		t.Error("replayed round recomputed instead of served from cache")
	}
	if got := o.Metrics.CounterValue("site.dedup_hits"); got != 1 {
		t.Errorf("dedup_hits = %d, want 1", got)
	}
	if got := o.Events.CountKind(obs.EventReplay); got != 1 {
		t.Errorf("replay events = %d, want 1", got)
	}

	// A different round of the same epoch is fresh work.
	if r := e.Handle(context.Background(), baseReq("ep1", 1)); r == first {
		t.Error("different round served stale cache entry")
	}
	// A second epoch gets its own cache — and does not evict the first:
	// concurrent executions interleave rounds on the same site.
	if r := e.Handle(context.Background(), baseReq("ep2", 0)); r == first {
		t.Error("new epoch served old epoch's cache")
	}
	if r := e.Handle(context.Background(), baseReq("ep1", 0)); r != first {
		t.Error("concurrent epoch evicted a live epoch's cache")
	}

	// Epoch completion drops exactly that epoch's entries.
	done := e.Handle(context.Background(), &transport.Request{Op: transport.OpEpochDone, Epoch: "ep1"})
	if done.Error() != nil {
		t.Fatalf("epoch done: %v", done.Error())
	}
	if done.RowCount != 2 {
		t.Errorf("epoch done evicted %d entries, want 2", done.RowCount)
	}
	if r := e.Handle(context.Background(), baseReq("ep1", 0)); r == first {
		t.Error("completed epoch's entry survived eviction")
	}
	if got := o.Metrics.CounterValue("site.dedup_evictions"); got != 2 {
		t.Errorf("dedup_evictions = %d, want 2", got)
	}
}

func TestReplayUntaggedNotCached(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)
	a := e.Handle(context.Background(), baseReq("", 0))
	b := e.Handle(context.Background(), baseReq("", 0))
	if a == b {
		t.Error("untagged request was cached")
	}
	if got := o.Metrics.CounterValue("site.dedup_hits"); got != 0 {
		t.Errorf("dedup_hits = %d, want 0", got)
	}
}

func TestReplayErrorsNotCached(t *testing.T) {
	e := loadedEngine(t)
	e.SetLimits(Limits{MaxResultRows: 1})
	a := e.Handle(context.Background(), baseReq("ep1", 0))
	if a.Error() == nil {
		t.Fatal("expected overload")
	}
	// After the overload clears, the same (epoch, round) must recompute
	// rather than replay the cached failure.
	e.SetLimits(Limits{})
	b := e.Handle(context.Background(), baseReq("ep1", 0))
	if b.Error() != nil {
		t.Fatalf("error response was cached: %v", b.Error())
	}
}

func TestReplayCacheEviction(t *testing.T) {
	e := loadedEngine(t)
	for round := 0; round < replayCacheCap+1; round++ {
		if r := e.Handle(context.Background(), baseReq("ep", round)); r.Error() != nil {
			t.Fatal(r.Error())
		}
	}
	// Round 0 was evicted (FIFO): a replay recomputes it.
	o := obs.New()
	e.SetObs(o)
	if r := e.Handle(context.Background(), baseReq("ep", 0)); r.Error() != nil {
		t.Fatal(r.Error())
	}
	if got := o.Metrics.CounterValue("site.dedup_hits"); got != 0 {
		t.Errorf("evicted entry still hit: dedup_hits = %d", got)
	}
	// The newest round is still cached.
	if r := e.Handle(context.Background(), baseReq("ep", replayCacheCap)); r.Error() != nil {
		t.Fatal(r.Error())
	}
	if got := o.Metrics.CounterValue("site.dedup_hits"); got != 1 {
		t.Errorf("newest entry not cached: dedup_hits = %d", got)
	}
}

func TestReplayEpochAgeOut(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)

	// Fill the epoch cap, then one more: the least-recently-touched epoch
	// (ep0) must age out so site memory stays bounded even when a
	// coordinator dies before sending OpEpochDone.
	original := e.Handle(context.Background(), baseReq("ep0", 0))
	if original.Error() != nil {
		t.Fatal(original.Error())
	}
	for i := 1; i <= replayEpochCap; i++ {
		epoch := fmt.Sprintf("ep%d", i)
		if r := e.Handle(context.Background(), baseReq(epoch, 0)); r.Error() != nil {
			t.Fatalf("epoch %s: %v", epoch, r.Error())
		}
	}
	if got := o.Metrics.CounterValue("site.dedup_epochs_evicted"); got != 1 {
		t.Errorf("dedup_epochs_evicted = %d, want 1", got)
	}
	if r := e.Handle(context.Background(), baseReq("ep0", 0)); r == original {
		t.Error("aged-out epoch still served from cache")
	}
	if got := e.ReplayCacheSize(); got > replayEpochCap*replayCacheCap {
		t.Errorf("cache size %d exceeds bound", got)
	}
}

func TestReplayLRUTouchKeepsEpochAlive(t *testing.T) {
	e := loadedEngine(t)

	keep := e.Handle(context.Background(), baseReq("keep", 0))
	if keep.Error() != nil {
		t.Fatal(keep.Error())
	}
	// Fill the remaining capacity, re-touching "keep" between admissions
	// so it is never the least-recently-used epoch.
	for i := 0; i < replayEpochCap+2; i++ {
		if r := e.Handle(context.Background(), baseReq(fmt.Sprintf("f%d", i), 0)); r.Error() != nil {
			t.Fatal(r.Error())
		}
		if r := e.Handle(context.Background(), baseReq("keep", 0)); r != keep {
			t.Fatalf("touched epoch evicted after admitting f%d", i)
		}
	}
}

func TestReplayPerEpochFIFOBound(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)

	for round := 0; round <= replayCacheCap+1; round++ {
		if r := e.Handle(context.Background(), baseReq("ep", round)); r.Error() != nil {
			t.Fatal(r.Error())
		}
	}
	if got := e.ReplayCacheSize(); got != replayCacheCap {
		t.Errorf("cache size = %d, want %d", got, replayCacheCap)
	}
	if got := o.Metrics.CounterValue("site.dedup_evictions"); got != 2 {
		t.Errorf("dedup_evictions = %d, want 2", got)
	}
}

func TestEpochDoneUnknownEpoch(t *testing.T) {
	e := loadedEngine(t)
	resp := e.Handle(context.Background(), &transport.Request{Op: transport.OpEpochDone, Epoch: "never-seen"})
	if resp.Error() != nil {
		t.Fatalf("epoch done on unknown epoch: %v", resp.Error())
	}
	if resp.RowCount != 0 {
		t.Errorf("evicted %d entries from unknown epoch, want 0", resp.RowCount)
	}
}

// blockingPings holds every OpPing inside the handler until release is
// closed, announcing each entry on entered; other ops reach the engine.
type blockingPings struct {
	*Engine
	entered chan struct{}
	release chan struct{}
}

func (h *blockingPings) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if req.Op != transport.OpPing {
		return h.Engine.Handle(ctx, req)
	}
	h.entered <- struct{}{}
	<-h.release
	return &transport.Response{}
}

// TestLimitRefusalKeepsSiteInflight: a limit refusal judges one request,
// not the site's load. After the site refuses an oversized answer, the
// served client stack still lets SiteInflight concurrent calls into the
// handler at once.
func TestLimitRefusalKeepsSiteInflight(t *testing.T) {
	const inflight = 4
	e := loadedEngine(t)
	e.SetLimits(Limits{MaxResultRows: 2}) // base query yields 3 groups
	h := &blockingPings{Engine: e, entered: make(chan struct{}, inflight), release: make(chan struct{})}
	spec := transport.SiteSpec{ID: "s0", Replicas: []transport.Replica{{Handler: h}}}
	spec.SiteInflight = inflight
	s, err := transport.NewSite(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	views := make([]transport.Client, inflight)
	for i := range views {
		if views[i], err = s.Client(); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := views[0].Call(context.Background(), baseReq("", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Error(), transport.ErrOverloaded) {
		t.Fatalf("err = %v, want the limit refusal", resp.Error())
	}

	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i, cl := range views {
		wg.Add(1)
		go func(i int, cl transport.Client) {
			defer wg.Done()
			_, errs[i] = cl.Call(context.Background(), &transport.Request{Op: transport.OpPing})
		}(i, cl)
	}
	inside := 0
	timeout := time.After(5 * time.Second)
wait:
	for inside < inflight {
		select {
		case <-h.entered:
			inside++
		case <-timeout:
			break wait
		}
	}
	close(h.release)
	wg.Wait()
	if inside < inflight {
		t.Fatalf("%d of %d concurrent calls inside the handler after a limit refusal, want all", inside, inflight)
	}
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
