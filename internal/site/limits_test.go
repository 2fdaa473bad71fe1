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

func baseReq() *transport.Request {
	return &transport.Request{
		Op: transport.OpEvalRounds, Detail: "flow",
		BaseCols: []string{"SourceAS", "DestAS"},
	}
}

func TestLimitsMaxResultRows(t *testing.T) {
	e := loadedEngine(t)
	o := obs.New()
	e.SetObs(o)
	e.SetLimits(Limits{MaxResultRows: 2}) // base query yields 3 groups

	resp := e.Handle(context.Background(), baseReq())
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
	if got := len(o.Events.ByKind(obs.EventOverload)); got != 1 {
		t.Errorf("overload events = %d, want 1", got)
	}

	// Raising the cap lets the same request through.
	e.SetLimits(Limits{MaxResultRows: 3})
	if resp := e.Handle(context.Background(), baseReq()); resp.Error() != nil {
		t.Fatalf("within-limit request refused: %v", resp.Error())
	}
}

// siteClient is the client transport.Site builds for spec, closed when
// the test ends.
func siteClient(t testing.TB, spec transport.SiteSpec) transport.Client {
	t.Helper()
	s, err := transport.NewSite(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := s.Client()
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestLimitRefusalReachesOneReplica: a limit refusal is deterministic per
// request, so behind a replica set or a hedger of equally limited replicas
// the request reaches exactly one of them, and the caller gets
// ErrOverloaded.
func TestLimitRefusalReachesOneReplica(t *testing.T) {
	check := func(label string, res transport.Resilience) {
		t.Helper()
		var replicas []transport.Replica
		var sinks []*obs.Obs
		for i := 0; i < 2; i++ {
			e := loadedEngine(t)
			o := obs.New()
			e.SetObs(o)
			e.SetLimits(Limits{MaxResultRows: 2}) // base query yields 3 groups
			replicas, sinks = append(replicas, transport.Replica{Handler: e}), append(sinks, o)
		}
		cl := siteClient(t, transport.SiteSpec{ID: "s1", Replicas: replicas, Resilience: res})
		resp, err := cl.Call(context.Background(), baseReq())
		if err != nil || !errors.Is(resp.Error(), transport.ErrOverloaded) {
			t.Fatalf("%s: %v / %v, want the ErrOverloaded refusal", label, err, resp.Error())
		}
		a, b := sinks[0].Metrics.CounterValue("site.overloads"), sinks[1].Metrics.CounterValue("site.overloads")
		if a+b != 1 {
			t.Errorf("%s: the replicas refused %d and %d times, want one refusal in all", label, a, b)
		}
	}

	check("replica set", transport.Resilience{Attempts: 3})
	check("hedger", transport.Resilience{Hedge: true, HedgeDelay: 10 * time.Second})
}

func TestLimitsMaxResultBytes(t *testing.T) {
	e := loadedEngine(t)
	e.SetLimits(Limits{MaxResultBytes: 10}) // 3 groups × 2 int cols ≫ 10 bytes
	resp := e.Handle(context.Background(), baseReq())
	if !errors.Is(resp.Error(), transport.ErrOverloaded) {
		t.Fatalf("err = %v, want wrapped ErrOverloaded", resp.Error())
	}
	e.SetLimits(Limits{}) // zero = unlimited
	if resp := e.Handle(context.Background(), baseReq()); resp.Error() != nil {
		t.Fatalf("unlimited request refused: %v", resp.Error())
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
// served client still lets as many concurrent calls into the handler at
// once as its pool holds connections.
func TestLimitRefusalKeepsSiteInflight(t *testing.T) {
	e := loadedEngine(t)
	e.SetLimits(Limits{MaxResultRows: 2}) // base query yields 3 groups
	h := &blockingPings{Engine: e, release: make(chan struct{})}
	s, err := transport.NewSite(transport.SiteSpec{ID: "s0", Replicas: []transport.Replica{{Handler: h}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var inflight int
	if _, err := fmt.Sscanf(s.String(), "pool(%d)", &inflight); err != nil {
		t.Fatalf("stack %q names no pool size: %v", s, err)
	}
	h.entered = make(chan struct{}, inflight)
	cl := s.Client()
	defer cl.Close()

	resp, err := cl.Call(context.Background(), baseReq())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Error(), transport.ErrOverloaded) {
		t.Fatalf("err = %v, want the limit refusal", resp.Error())
	}

	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Call(context.Background(), &transport.Request{Op: transport.OpPing})
		}(i)
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
