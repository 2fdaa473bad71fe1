package transport

import (
	"encoding/json"
	"net/http"

	"context"
	"errors"
	"repro/internal/obs"
	"testing"
	"time"
)

// armedLeaf is the leaf Site dials to replica r: its connection under
// r's fault schedule.
func armedLeaf(t *testing.T, r Replica) Client {
	t.Helper()
	s, err := NewSite(SiteSpec{ID: "s", Replicas: []Replica{r}})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := s.dial(r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	return leaf
}

// injectN queues n copies of f for op on ch.
func injectN(ch *Chaos, op Op, n int, f Fault) {
	for i := 0; i < n; i++ {
		ch.Inject(op, f)
	}
}

func TestChaosPassThrough(t *testing.T) {
	c := NewChaos()
	exerciseClient(t, localClient(t, "s", newEchoHandler(), c))
	if c.Injected() != 0 {
		t.Errorf("injected %d faults with empty script", c.Injected())
	}
	if c.Calls() == 0 {
		t.Error("calls not counted")
	}
}

func TestChaosOneShotErrors(t *testing.T) {
	ch := NewChaos()
	c := localClient(t, "s", newEchoHandler(), ch)
	injectN(ch, OpPing, 2, Fault{Err: ErrInjected})
	for i := 0; i < 2; i++ {
		if _, err := c.Call(context.Background(), &Request{Op: OpPing}); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("fault queue not drained: %v", err)
	}
	if ch.Injected() != 2 {
		t.Errorf("injected = %d, want 2", ch.Injected())
	}
}

func TestChaosPerOpScripting(t *testing.T) {
	ch := NewChaos()
	c := localClient(t, "s", newEchoHandler(), ch)
	ch.Inject(OpLoad, Fault{Err: ErrInjected})
	// Faults scripted for OpLoad must not affect other ops.
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatalf("ping hit a load fault: %v", err)
	}
	if _, err := c.Call(context.Background(), &Request{Op: OpLoad, Rel: "t", Data: sampleRelation(1)}); !errors.Is(err, ErrInjected) {
		t.Fatalf("load fault not applied: %v", err)
	}
}

func TestChaosDelay(t *testing.T) {
	ch := NewChaos()
	c := localClient(t, "s", newEchoHandler(), ch)
	ch.Inject(OpPing, Fault{Delay: 30 * time.Millisecond})
	start := time.Now()
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delay not applied: %v", d)
	}
}

func TestChaosDelayHonorsContext(t *testing.T) {
	ch := NewChaos()
	c := localClient(t, "s", newEchoHandler(), ch)
	ch.Inject(OpPing, Fault{Delay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Call(ctx, &Request{Op: OpPing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("delayed call did not honor the deadline")
	}
}

func TestChaosHangUntilCancel(t *testing.T) {
	ch := NewChaos()
	c := localClient(t, "s", newEchoHandler(), ch)
	ch.Inject(OpPing, Fault{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Call(ctx, &Request{Op: OpPing})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("hang did not release on cancel")
	}
	// Subsequent calls are healthy again.
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosHangReleasedByClose(t *testing.T) {
	ch := NewChaos()
	c := armedLeaf(t, Replica{Handler: newEchoHandler(), Chaos: ch})
	ch.Inject(OpPing, Fault{Hang: true})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Op: OpPing})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung call not released by Close")
	}
}

// TestChaosDropClosesInner: a drop breaks the connection its call runs
// on. The next call on it fails as a transport error, never as the
// caller's own Close, so a retry layer above would redial.
func TestChaosDropClosesInner(t *testing.T) {
	srv := NewServer(newEchoHandler())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ch := NewChaos()
	c := armedLeaf(t, Replica{Addr: addr, Chaos: ch})
	ch.Inject(OpPing, Fault{Drop: true, Err: ErrInjected})
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); !errors.Is(err, ErrInjected) {
		t.Fatalf("drop fault: %v", err)
	}
	// The connection really is gone.
	if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("dropped connection: %v, want a transport error", err)
	}
}

// TestChaosSeededDeterminism: the same seed must produce the same
// straggler sequence for the same call sequence — the property the tail
// tests and `-experiment tail` rely on. Each call's draw is read from the
// "chaos.injected" counter the schedule publishes.
func TestChaosSeededDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		ch := NewChaos()
		ch.SetTailLatency(seed, 0.5, time.Microsecond)
		o := obs.New()
		c := siteClient(t, SiteSpec{ID: "s", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: ch}}, Obs: o})
		outcomes := make([]bool, 40)
		for i := range outcomes {
			before := o.Metrics.CounterValue("chaos.injected")
			if _, err := c.Call(context.Background(), &Request{Op: OpPing}); err != nil {
				t.Fatal(err)
			}
			outcomes[i] = o.Metrics.CounterValue("chaos.injected") > before
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 40-call straggler sequences")
	}
	delayed := 0
	for _, f := range a {
		if f {
			delayed++
		}
	}
	if delayed == 0 || delayed == len(a) {
		t.Errorf("p 0.5 delayed %d/%d calls", delayed, len(a))
	}
}

// TestChaosObsAttribution is the regression test for chaos attribution
// getting lost behind the pass-through: an unfaulted call's wire traffic
// is the leaf's own, so injected faults must surface as obs
// counters and events with exact counts — including over the /events
// debug endpoint, which is what operators (and this test) assert on.
func TestChaosObsAttribution(t *testing.T) {
	ch := NewChaos()
	injectN(ch, OpPing, 2, Fault{Err: ErrInjected})
	o := obs.New()
	// Injector and retry layer publish into the site's one sink.
	rc := siteClient(t, SiteSpec{ID: "s", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: ch}},
		Obs: o, Resilience: Resilience{Attempts: 3}})
	if _, err := rc.Call(context.Background(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}

	if got := o.Metrics.CounterValue("chaos.injected"); got != 2 {
		t.Errorf("chaos.injected = %d, want 2", got)
	}
	if got := o.Metrics.CounterValue("chaos.injected.err"); got != 2 {
		t.Errorf("chaos.injected.err = %d, want 2", got)
	}
	if got := o.Metrics.CounterValue("transport.retries"); got != 2 {
		t.Errorf("transport.retries = %d, want 2", got)
	}
	if got := len(o.Events.ByKind(obs.EventChaos)); got != 2 {
		t.Errorf("chaos events = %d, want 2", got)
	}
	if got := len(o.Events.ByKind(obs.EventRetry)); got != 2 {
		t.Errorf("retry events = %d, want 2", got)
	}

	// The same incidents must be visible over the debug HTTP surface.
	dbg, err := obs.ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	for kind, want := range map[string]int{"chaos": 2, "retry": 2} {
		resp, err := http.Get("http://" + dbg.Addr() + "/events?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		var events []obs.Event
		if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
			t.Fatalf("decode /events?kind=%s: %v", kind, err)
		}
		resp.Body.Close()
		if len(events) != want {
			t.Errorf("/events?kind=%s returned %d events, want %d", kind, len(events), want)
		}
		for _, e := range events {
			if e.Kind != kind || e.Site != "s" {
				t.Errorf("/events?kind=%s returned %+v", kind, e)
			}
		}
	}
}

// TestChaosRandomInjectionCounted checks seeded straggler delays are
// attributed with the same exactness as scripted faults: the obs counter
// must equal Injected() for any seed.
func TestChaosRandomInjectionCounted(t *testing.T) {
	ch := NewChaos()
	o := obs.New()
	ch.SetTailLatency(42, 0.5, time.Microsecond)
	c := siteClient(t, SiteSpec{ID: "s", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: ch}}, Obs: o})
	for i := 0; i < 40; i++ {
		c.Call(context.Background(), &Request{Op: OpPing})
	}
	if got, want := o.Metrics.CounterValue("chaos.injected"), int64(ch.Injected()); got != want {
		t.Errorf("chaos.injected = %d, Injected() = %d", got, want)
	}
	if got := ch.Injected(); got == 0 || got == 40 {
		t.Errorf("seed produced degenerate injection count %d", got)
	}
}

// TestChaosScheduleSpansRedials: a replica's schedule counts the
// replica's calls, not one connection's. A drop breaks the first
// connection and the retry layer redials; the drop-after scheduled for the
// second round call still fires, on the second connection, and the retry
// layer learns of it by sending the third round on that broken connection.
func TestChaosScheduleSpansRedials(t *testing.T) {
	ch := NewChaos()
	ch.InjectAt(OpEvalRounds, 2, Fault{DropAfter: true})
	o := obs.New()
	c := siteClient(t, SiteSpec{ID: "s", Replicas: []Replica{{Handler: newEchoHandler(), Chaos: ch}},
		Obs: o, Resilience: Resilience{Attempts: 2}})
	call := func(op Op) {
		t.Helper()
		if _, err := c.Call(context.Background(), &Request{Op: op}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	retries := func() int64 { return o.Metrics.CounterValue("transport.retries") }
	call(OpEvalRounds)
	ch.Inject(OpPing, Fault{Drop: true, Err: ErrInjected})
	call(OpPing)
	if got := retries(); got != 1 {
		t.Fatalf("retries after the drop = %d, want 1 (the first connection redialed)", got)
	}
	call(OpEvalRounds)
	if got := o.Metrics.CounterValue("chaos.injected.drop-after"); got != 1 {
		t.Fatalf("drop-after faults on the second round call = %d, want 1", got)
	}
	if got := retries(); got != 1 {
		t.Fatalf("retries after the second round = %d, want 1: its reply was delivered", got)
	}
	call(OpEvalRounds)
	if got := retries(); got != 2 {
		t.Errorf("retries after the third round = %d, want 2 (the broken second connection redialed)", got)
	}
	if got := ch.Injected(); got != 2 {
		t.Errorf("injected = %d, want 2", got)
	}
}
