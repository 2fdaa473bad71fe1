package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/transport"
)

func sameEngine(_ int, h transport.Handler) transport.Handler { return h }

// TestStatesOnlyWireMatrix is the differential check of the wire against
// the parent protocol, which shipped relations as gob rows:
// testdata/wire_614333c.json holds wireMatrix's records at commit 614333c
// (column-pruned requests and states-only replies, before frames). Every
// answer is byte-equal to the centralized one (wireMatrix), every round
// moves exactly the groups it moved before, every round's replies are
// smaller, every round that ships X ships fewer bytes, and no other round
// ships more.
func TestStatesOnlyWireMatrix(t *testing.T) {
	b, err := os.ReadFile("testdata/wire_614333c.json")
	if err != nil {
		t.Fatal(err)
	}
	var before []wireCase
	if err := json.Unmarshal(b, &before); err != nil {
		t.Fatal(err)
	}
	cases := wireMatrix(t, sameEngine)
	if len(cases) != len(before) {
		t.Fatalf("%d cases, %d recorded", len(cases), len(before))
	}
	filtered, pruned := 0, 0
	for ci, c := range cases {
		old := before[ci]
		if c.Label != old.Label || len(c.Rounds) != len(old.Rounds) {
			t.Fatalf("case %s (%d rounds) vs recorded %s (%d rounds)", c.Label, len(c.Rounds), old.Label, len(old.Rounds))
		}
		// The plan you read is the plan that runs: one round per step, in
		// order, under the step's name.
		if len(c.Rounds) != len(c.plan.Steps) {
			t.Fatalf("case %s ran %d rounds for %d steps", c.Label, len(c.Rounds), len(c.plan.Steps))
		}
		for ri, r := range c.Rounds {
			o, step := old.Rounds[ri], c.plan.Steps[ri]
			if r.Name != step.Name {
				t.Errorf("%s round %d ran as %q, step is %q", c.Label, ri, r.Name, step.Name)
			}
			if r.Name != o.Name || r.GroupsShipped != o.GroupsShipped || r.GroupsReceived != o.GroupsReceived {
				t.Errorf("%s round %s: groups %d/%d, recorded %s %d/%d", c.Label, r.Name,
					r.GroupsShipped, r.GroupsReceived, o.Name, o.GroupsShipped, o.GroupsReceived)
			}
			toLimit := o.BytesToSites
			if step.ships() {
				toLimit--
				if step.Filters != nil {
					filtered++
				}
				width := len(c.plan.Query.Base.Cols)
				for _, md := range c.plan.Query.MDs[:step.MDs[0]] {
					width += len(md.Specs())
				}
				if len(step.Ship) < width {
					pruned++
				}
			}
			if r.BytesToSites > toLimit || r.BytesFromSites >= o.BytesFromSites {
				t.Errorf("%s round %s: %d/%d bytes, recorded %d/%d", c.Label, r.Name,
					r.BytesToSites, r.BytesFromSites, o.BytesToSites, o.BytesFromSites)
			}
		}
	}
	// The matrix must reach Theorem-4 filters, whose fragment positions
	// differ from X's, and pruned ship sets.
	if filtered == 0 || pruned == 0 {
		t.Errorf("matrix ran %d filtered and %d pruned rounds; want both", filtered, pruned)
	}
	if ex := cases[0].plan.Explain(); !strings.Contains(ex, "step 3: MDs [3], ships X{CustName, avg1}") {
		t.Errorf("unoptimized plan does not show its ship sets:\n%s", ex)
	}
}

// keptRecorder counts the states-only exchanges through a site client and
// the replies among them that dropped rows (a non-nil Kept bitmap).
type keptRecorder struct {
	transport.Client
	statesOnly, kept *atomic.Int64
}

func (r keptRecorder) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	resp, err := r.Client.Call(ctx, req)
	if err == nil && req.ShipsBase() {
		r.statesOnly.Add(1)
		if resp.Kept != nil {
			r.kept.Add(1)
		}
	}
	return resp, err
}

// TestStatesOnlyRecovery runs states-only rounds with Proposition 1's
// bitmaps through the recovery paths — a retry re-sent after a lost
// reply, a hedge racing two replicas, and a checkpoint resume on a new
// coordinator — and demands the centralized answer from each.
func TestStatesOnlyRecovery(t *testing.T) {
	parts := fig5Parts(t, wireMatrixConfig)
	q := fig5Query("CustName")
	whole := relation.New(parts[0].Schema)
	for _, p := range parts {
		whole.Rows = append(whole.Rows, p.Rows...)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := sortedCSV(t, want, q.Keys())
	egil := Egil{Catalog: newTestCatalog(len(parts)), Options: Options{GroupReduceSites: true}}
	var statesOnly, kept atomic.Int64
	// build serves the partitions through client, which sees each engine
	// and its id, and counts the states-only exchanges.
	build := func(client func(id string, eng *site.Engine) transport.Client) (*Coordinator, []*site.Engine) {
		var clients []transport.Client
		var engines []*site.Engine
		for i, p := range parts {
			eng := site.NewEngine(fmt.Sprintf("site%d", i))
			eng.Load("tpcr", p)
			engines = append(engines, eng)
			clients = append(clients, keptRecorder{client(eng.ID(), eng), &statesOnly, &kept})
		}
		return NewCoordinator(clients...), engines
	}
	local := func(id string, eng *site.Engine) transport.Client {
		return localClient(t, id, eng)
	}
	check := func(label string, coord *Coordinator) *ExecStats {
		t.Helper()
		statesOnly.Store(0)
		kept.Store(0)
		got, stats, _, err := coord.Run(context.Background(), q, "tpcr", egil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if gotCSV := sortedCSV(t, got, q.Keys()); gotCSV != wantCSV {
			t.Errorf("%s: answer differs from the centralized one", label)
		}
		if statesOnly.Load() == 0 || kept.Load() == 0 {
			t.Errorf("%s: %d states-only exchanges, %d with a Kept bitmap; want both", label, statesOnly.Load(), kept.Load())
		}
		return stats
	}

	t.Run("replay", func(t *testing.T) {
		coord, _ := build(func(id string, eng *site.Engine) transport.Client {
			if id == "site1" {
				// The second round request is delivered and its reply lost,
				// so the site has evaluated what the coordinator never read.
				lost := transport.NewChaos()
				lost.InjectAt(transport.OpEvalRounds, 2, transport.Fault{DropAfter: true, Err: transport.ErrInjected})
				return siteClient(t, transport.SiteSpec{ID: id,
					Replicas:   []transport.Replica{{Handler: eng, Chaos: lost}},
					Resilience: transport.Resilience{Attempts: 2}})
			}
			return local(id, eng)
		})
		stats := check("replay", coord)
		if rp := roundSites(stats, (*RoundStats).Replayed); len(rp) != 1 || rp[0] != "site1" {
			t.Errorf("retried sites = %v, want [site1]", rp)
		}
	})

	t.Run("hedge", func(t *testing.T) {
		coord, _ := build(func(id string, eng *site.Engine) transport.Client {
			if id != "site1" {
				return local(id, eng)
			}
			primary := transport.NewChaos()
			injectN(primary, transport.OpEvalRounds, 1000, transport.Fault{Delay: 200 * time.Millisecond})
			return siteClient(t, transport.SiteSpec{ID: id,
				Replicas:   []transport.Replica{{Handler: eng, Chaos: primary}, {Handler: eng}},
				Resilience: transport.Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond}})
		})
		if hedged := roundSites(check("hedge", coord), (*RoundStats).Hedged); len(hedged) != 1 || hedged[0] != "site1" {
			t.Errorf("hedged sites = %v, want [site1]", hedged)
		}
	})

	t.Run("resume", func(t *testing.T) {
		var fail atomic.Bool
		coord, _ := build(func(id string, eng *site.Engine) transport.Client {
			if id == "site2" {
				return failingRounds{local(id, eng), &fail, 3}
			}
			return local(id, eng)
		})
		store := NewMemCheckpoints()
		coord.Checkpoints = store
		fail.Store(true)
		if _, _, _, err := coord.Run(context.Background(), q, "tpcr", egil); err == nil {
			t.Fatal("interrupted run succeeded")
		}
		fail.Store(false)
		resumed := NewCoordinator(coord.clients...)
		resumed.Checkpoints = store
		if stats := check("resume", resumed); resumedRounds(stats) != 3 {
			t.Errorf("resumed %d rounds, want 3 (base, steps 1 and 2)", resumedRounds(stats))
		}
	})
}

// failingRounds fails its site's nth round request while fail is set.
type failingRounds struct {
	transport.Client
	fail *atomic.Bool
	nth  int
}

func (f failingRounds) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	if f.fail.Load() && req.Op == transport.OpEvalRounds && req.Round == f.nth {
		return nil, transport.ErrInjected
	}
	return f.Client.Call(ctx, req)
}
