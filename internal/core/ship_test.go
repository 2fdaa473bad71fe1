package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/value"
)

// shipped is one request that shipped a base through a recorded client.
type shipped struct {
	client string
	round  int
	frame  *relation.Frame
	boxed  bool // the request carried its base boxed, for the client to frame
}

// shipLog records the shipped base of every request through its clients.
type shipLog struct {
	mu   sync.Mutex
	sent []shipped
}

// take returns the requests recorded since the last take.
func (l *shipLog) take() []shipped {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.sent
	l.sent = nil
	return out
}

// shipRecorder logs each request's shipped base before passing it on.
type shipRecorder struct {
	transport.Client
	name string
	log  *shipLog
}

func (r shipRecorder) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if req.ShipsBase() {
		f, err := req.BaseFrame()
		if err != nil {
			return nil, err
		}
		r.log.mu.Lock()
		r.log.sent = append(r.log.sent, shipped{r.name, req.Round, f, req.Base != nil})
		r.log.mu.Unlock()
	}
	return r.Client.Call(ctx, req)
}

// parentShipment is what the protocol before round frames shipped site in
// step: X projected on the ship set, of the rows the site's filter keeps.
func parentShipment(t *testing.T, x *relation.Relation, step *Step, site string) *relation.Relation {
	t.Helper()
	px := x
	if step.Ship != nil && len(step.Ship) < x.Schema.Len() {
		var err error
		if px, err = x.Project(step.Ship); err != nil {
			t.Fatal(err)
		}
	}
	f := step.filter(site)
	if f == nil {
		return px
	}
	out := relation.New(px.Schema)
	for i, row := range x.Rows {
		ok, err := f.EvalBool(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out.Rows = append(out.Rows, px.Rows[i])
		}
	}
	return out
}

// TestShippedFrames runs the wire matrix's plans, flat and under one relay
// tier, round by round. Every shipping round frames X exactly once for
// each distinct shipment: one frame, the same *Frame, for every site
// without a Theorem-4 filter, and one for each filtered site. No request
// leaves the coordinator with its base boxed, so no client frames X
// again. Each site's frame is byte for byte the frame of what the
// protocol before round frames shipped it.
func TestShippedFrames(t *testing.T) {
	parts := fig5Parts(t, wireMatrixConfig)
	q := fig5Query("CustName")
	ctx := context.Background()
	filtered, unfiltered := 0, 0
	for _, relays := range []bool{false, true} {
		coord, cat := wireCluster(t, wireMatrixConfig, parts, relays, sameEngine)
		log := &shipLog{}
		for i, cl := range coord.clients {
			coord.clients[i] = shipRecorder{Client: cl, name: cl.SiteID(), log: log}
		}
		for _, opts := range allOptions() {
			label := fmt.Sprintf("relays=%v/%s", relays, optLabel(opts))
			plan, err := coord.Plan(ctx, q, "tpcr", Egil{Catalog: cat, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			var x *relation.Relation
			for seq := range plan.Steps {
				step := &plan.Steps[seq]
				_, merged, err := coord.round(ctx, x, plan, seq)
				if err != nil {
					t.Fatalf("%s %s: %v", label, step.Name, err)
				}
				sent := log.take()
				if !step.ships() {
					if len(sent) != 0 {
						t.Errorf("%s %s ships no X, yet sent %d bases", label, step.Name, len(sent))
					}
					x = merged
					continue
				}
				if len(sent) != len(coord.clients) {
					t.Fatalf("%s %s: %d sites sent a base, want %d", label, step.Name, len(sent), len(coord.clients))
				}
				frames := map[*relation.Frame]bool{}
				var shared *relation.Frame
				want := 0 // the distinct shipments: one per filtered site, one for the rest
				for _, s := range sent {
					frames[s.frame] = true
					if s.boxed {
						t.Errorf("%s %s: %s's request carries X boxed", label, step.Name, s.client)
					}
					switch {
					case step.filter(s.client) != nil:
						want++
						filtered++
					case shared == nil:
						want++
						unfiltered++
						shared = s.frame
					default:
						unfiltered++
						if s.frame != shared {
							t.Errorf("%s %s: unfiltered site %s got a frame of its own", label, step.Name, s.client)
						}
					}
					wantFrame, err := relation.FrameOf(parentShipment(t, x, step, s.client))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(s.frame.Bytes(), wantFrame.Bytes()) {
						t.Errorf("%s %s: %s's frame differs from the parent's shipment", label, step.Name, s.client)
					}
				}
				if len(frames) != want {
					t.Errorf("%s %s: %d frames for %d distinct shipments", label, step.Name, len(frames), want)
				}
				x = merged
			}
		}
	}
	if filtered == 0 || unfiltered == 0 {
		t.Errorf("matrix shipped %d filtered and %d unfiltered bases; want both", filtered, unfiltered)
	}
}

// failCall fails the test if a site is called.
type failCall struct {
	transport.Client
	t     *testing.T
	calls *atomic.Int64
}

func (f failCall) Call(context.Context, *transport.Request) (*transport.Response, error) {
	f.calls.Add(1)
	f.t.Errorf("site %s called", f.SiteID())
	return nil, errors.New("called")
}

// TestMalformedXFailsBeforeAnyCall: X is validated before it is framed, so
// a malformed X fails its round with relation.ErrMalformed before any site
// is called, and the round charges no bytes.
func TestMalformedXFailsBeforeAnyCall(t *testing.T) {
	x := relation.New(relation.MustSchema(
		relation.Column{Name: "CustName", Kind: value.KindString},
		relation.Column{Name: "avg1", Kind: value.KindFloat}))
	x.MustAppend(value.NewString("a"), value.NewFloat(1))
	x.Rows = append(x.Rows, relation.Row{value.NewString("b")})
	var calls atomic.Int64
	clients := make([]transport.Client, 4)
	for i := range clients {
		id := fmt.Sprintf("site%d", i)
		clients[i] = failCall{localClient(t, id, site.NewEngine(id)), t, &calls}
	}
	plan := &Plan{Steps: []Step{{Name: "step 1", MDs: []int{0}, Ship: []string{"CustName"}, Request: transport.Request{
		Op: transport.OpEvalRounds, Rounds: []transport.RoundSpec{{Detail: "tpcr", Aggs: [][]string{{"count(*) AS n"}}, Thetas: []string{"F.CustName = B.CustName"}}},
	}}}}
	rs, _, err := NewCoordinator(clients...).round(context.Background(), x, plan, 0)
	if !errors.Is(err, relation.ErrMalformed) {
		t.Errorf("malformed X: %v, want ErrMalformed", err)
	}
	if calls.Load() != 0 || len(rs.Sites) != 0 || rs.BytesToSites != 0 || rs.BytesFromSites != 0 {
		t.Errorf("round called %d sites, recorded %d and charged %d/%d bytes", calls.Load(), len(rs.Sites), rs.BytesToSites, rs.BytesFromSites)
	}
}

// slowShipped answers a request that ships a base only after d, or when
// its caller hangs up.
type slowShipped struct {
	transport.Handler
	d time.Duration
}

func (s slowShipped) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	if req.ShipsBase() {
		select {
		case <-time.After(s.d):
		case <-ctx.Done():
		}
	}
	return s.Handler.Handle(ctx, req)
}

// TestHedgedShippingRound: one site is a hedged pair of replicas whose
// primary straggles on every round that ships X. The hedge races the
// primary at once, so the two calls send the one frame the round encoded,
// concurrently and as it is (the race detector watches them read it), and
// every other site gets that frame too. The answer is the centralized one.
func TestHedgedShippingRound(t *testing.T) {
	parts := fig5Parts(t, wireMatrixConfig)
	q := fig5Query("CustName")
	log := &shipLog{}
	clients := make([]transport.Client, len(parts))
	for i, p := range parts {
		id := fmt.Sprintf("site%d", i)
		eng := site.NewEngine(id)
		eng.Load("tpcr", p)
		rec := func(name string, h transport.Handler) transport.Client {
			return shipRecorder{Client: localClient(t, id, h), name: name, log: log}
		}
		clients[i] = rec(id, eng)
		if i == 1 {
			clients[i] = transport.NewHedger(id, []transport.Client{
				rec(id+"/primary", slowShipped{eng, time.Second}), rec(id+"/hedge", eng),
			}, time.Microsecond, nil, nil)
		}
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	whole := relation.New(parts[0].Schema)
	for _, p := range parts {
		whole.Rows = append(whole.Rows, p.Rows...)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, plan, err := NewCoordinator(clients...).Run(context.Background(), q, "tpcr", Egil{})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := sortedCSV(t, got, q.Keys()), sortedCSV(t, want, q.Keys()); g != w {
		t.Errorf("hedged answer differs from the centralized one:\n%s\nwant:\n%s", g, w)
	}
	rounds := map[int][]shipped{}
	for _, s := range log.take() {
		rounds[s.round] = append(rounds[s.round], s)
	}
	shipping := 0
	for seq, step := range plan.Steps {
		if !step.ships() {
			continue
		}
		shipping++
		sent, hedges := rounds[seq], stats.Rounds[seq].Sites[1].Hedges
		if len(sent) != len(parts)+1 || hedges != 1 {
			t.Fatalf("%s: %d calls shipped X, %d hedges; want %d calls, the hedge among them", step.Name, len(sent), hedges, len(parts)+1)
		}
		for _, s := range sent {
			if s.frame != sent[0].frame || s.boxed {
				t.Errorf("%s: %s sent a frame of its own (boxed %v)", step.Name, s.client, s.boxed)
			}
		}
	}
	if shipping == 0 {
		t.Fatal("the unoptimized plan ships no X")
	}
}

// BenchmarkShipX prices framing a 2 000-row X, shipped whole, for 4 and
// for 8 sites: the frame is encoded once per round, so B/op does not grow
// with the sites. Under a Theorem-4 filter that keeps each site a disjoint
// eighth of X ("filtered"), every site gets a frame of its own rows only,
// so the round frames X's rows about once in all.
func BenchmarkShipX(b *testing.B) {
	x := relation.New(relation.MustSchema(
		relation.Column{Name: "CustName", Kind: value.KindString},
		relation.Column{Name: "cnt1", Kind: value.KindInt},
		relation.Column{Name: "avg1", Kind: value.KindFloat}))
	for g := 0; g < 2000; g++ {
		x.MustAppend(value.NewString(fmt.Sprintf("Customer#%09d", g)), value.NewInt(int64(g%7)), value.NewFloat(float64(g)/8))
	}
	whole := &Step{Name: "step 2", Ship: []string{"CustName", "avg1"}, Request: transport.Request{Op: transport.OpEvalRounds}}
	filtered := &Step{Name: "step 2", Ship: whole.Ship, Request: whole.Request, xSchema: x.Schema}
	for i := 0; i < 8; i++ {
		e, err := expr.Parse(fmt.Sprintf("B.avg1 >= %g AND B.avg1 < %g", 31.25*float64(i), 31.25*float64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		f, err := expr.Bind(e, expr.Binding{Base: x.Schema, BaseAliases: []string{"B"}})
		if err != nil {
			b.Fatal(err)
		}
		filtered.Filters = append(filtered.Filters, SiteFilter{Site: fmt.Sprintf("site%d", i), Filter: f})
	}
	for _, run := range []struct {
		name  string
		sites int
		step  *Step
	}{{"sites=4", 4, whole}, {"sites=8", 8, whole}, {"sites=8/filtered", 8, filtered}} {
		clients := make([]transport.Client, run.sites)
		for i := range clients {
			id := fmt.Sprintf("site%d", i)
			clients[i] = localClient(b, id, site.NewEngine(id))
		}
		c := NewCoordinator(clients...)
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.shipments(x, run.step); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, cl := range clients {
			cl.Close()
		}
	}
}
