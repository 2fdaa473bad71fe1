package skalla

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestRecoveryAfterCoordinatorRestart is the end-to-end recovery scenario
// over real TCP: a coordinator with a file-backed checkpoint store dies
// between synchronization rounds (a chaos-injected transport failure at
// the round-2 fan-out aborts the run), and a freshly built cluster — the
// restarted coordinator process — pointed at the same checkpoint
// directory resumes from the last completed round. The final relation and
// the per-round ExecStats byte counters must match an uninterrupted run,
// with the restored rounds accounted as resumed, not re-executed.
func TestRecoveryAfterCoordinatorRestart(t *testing.T) {
	parts, whole := flowParts(3)
	var sites []string
	for i := range parts {
		entry, _ := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, entry)
	}
	dir := t.TempDir()

	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}

	// Reference: an uninterrupted run. It gets its own checkpoint store so
	// its requests carry the same (epoch, round) tags as the recovery runs
	// — tags change request wire size, and the byte comparison below is
	// exact in the request direction.
	refCluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second, Checkpoints: NewMemCheckpoints()},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refCluster.Close()
	ref, err := refCluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "uninterrupted", ref.Relation, want)

	// Coordinator process #1: checkpoints to dir, and is killed between
	// rounds — the injected fault fails the third evaluation fan-out
	// (plan round 3), after rounds 1 and 2 were checkpointed.
	store1, err := NewFileCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	o1 := obs.New()
	var clients []transport.Client
	var chaos []*transport.Chaos
	for i, entry := range sites {
		ch := transport.NewChaos()
		cl := siteClient(t, transport.SiteSpec{ID: fmt.Sprintf("site%d", i),
			Replicas: []transport.Replica{{Addr: entry, Chaos: ch}}})
		clients = append(clients, cl)
		chaos = append(chaos, ch)
	}
	chaos[2].InjectAt(transport.OpEvalRounds, 3, transport.Fault{Err: transport.ErrInjected})
	coord := core.NewCoordinator(clients...)
	coord.Checkpoints = store1
	coord.Obs = o1
	cat := catalog.New("site0", "site1", "site2")
	if _, _, _, err := coord.Run(context.Background(), example1(), "flow", core.Egil{Catalog: cat}); err == nil {
		t.Fatal("interrupted run did not fail")
	}
	if got := o1.Metrics.CounterValue("checkpoint.written"); got != 2 {
		t.Fatalf("checkpoints written before the crash = %d, want 2", got)
	}
	for _, cl := range clients {
		cl.Close() // the dead coordinator's connections go away with it
	}

	// Coordinator process #2: a fresh cluster over the same sites, opening
	// the same checkpoint directory, resumes and completes the execution.
	store2, err := NewFileCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	o2 := obs.New()
	resumed, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second, Checkpoints: store2, Obs: o2},
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	res, err := resumed.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	assertSameResult(t, "resumed", res.Relation, want)

	// Restored rounds are accounted as resumed, separately from replays.
	if got := resumedRounds(res.Stats); got != 2 {
		t.Errorf("resumed rounds = %d, want 2", got)
	}
	if len(res.Stats.Rounds) != len(ref.Stats.Rounds) {
		t.Fatalf("resumed run has %d rounds, reference %d", len(res.Stats.Rounds), len(ref.Stats.Rounds))
	}
	for i, r := range res.Stats.Rounds {
		if wantResumed := i < 2; r.Resumed != wantResumed {
			t.Errorf("round %s: Resumed = %v, want %v", r.Name, r.Resumed, wantResumed)
		}
	}
	if got := roundSites(res.Stats, (*core.RoundStats).Replayed); len(got) != 0 {
		t.Errorf("replayed sites = %v, want none", got)
	}
	if got := o2.Metrics.CounterValue("checkpoint.resumed"); got != 1 {
		t.Errorf("checkpoint.resumed = %d, want 1", got)
	}
	if got := o2.Metrics.CounterValue("coord.rounds_resumed"); got != 2 {
		t.Errorf("coord.rounds_resumed = %d, want 2", got)
	}

	// Byte and group counters match the uninterrupted run round for round.
	for i, r := range res.Stats.Rounds {
		refR := ref.Stats.Rounds[i]
		if r.BytesToSites != refR.BytesToSites {
			t.Errorf("round %s: BytesToSites = %d, reference %d", r.Name, r.BytesToSites, refR.BytesToSites)
		}
		if r.GroupsShipped != refR.GroupsShipped || r.GroupsReceived != refR.GroupsReceived {
			t.Errorf("round %s: groups = %d/%d, reference %d/%d",
				r.Name, r.GroupsShipped, r.GroupsReceived, refR.GroupsShipped, refR.GroupsReceived)
		}
		if r.BytesFromSites != refR.BytesFromSites {
			t.Errorf("round %s: BytesFromSites = %d, reference %d", r.Name, r.BytesFromSites, refR.BytesFromSites)
		}
	}

	// Completion cleared the checkpoint: re-running the same query on the
	// same store starts fresh instead of resuming.
	res2, err := resumed.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumedRounds(res2.Stats); got != 0 {
		t.Errorf("rerun after completion resumed %d rounds, want 0 (checkpoint not cleared)", got)
	}
	assertSameResult(t, "rerun", res2.Relation, want)
}

// TestRoundBoundaryConnectionLoss exercises the DropAfter chaos fault
// over real TCP: site1's connection delivers its answer for the base
// round and is then torn down, so the socket is dead when the next round
// fans out. The deployed stack's retry layer finds the connection
// gone, redials on its second attempt and the query completes with the
// right answer: nothing lost, one re-send of one round, accounted as such.
func TestRoundBoundaryConnectionLoss(t *testing.T) {
	parts, whole := flowParts(2)
	o := obs.New()
	var clients []transport.Client
	dropped := transport.NewChaos() // site1's schedule
	dropped.InjectAt(transport.OpEvalRounds, 1, transport.Fault{DropAfter: true})
	for i := range parts {
		id := fmt.Sprintf("site%d", i)
		entry, _ := startFlowSite(t, id, parts[i], 1)
		replica := transport.Replica{Addr: entry}
		if i == 1 {
			replica.Chaos = dropped
		}
		clients = append(clients, siteClient(t, transport.SiteSpec{
			ID: id, Replicas: []transport.Replica{replica}, Obs: o,
			Resilience: transport.Resilience{Attempts: 2, Backoff: time.Millisecond},
		}))
	}

	coord := core.NewCoordinator(clients...)
	coord.Obs = o
	cat := catalog.New("site0", "site1")
	rel, stats, _, err := coord.Run(context.Background(), example1(), "flow", core.Egil{Catalog: cat})
	if err != nil {
		t.Fatalf("query across connection loss: %v", err)
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "after connection loss", rel, want)

	if dropped.Injected() != 1 {
		t.Fatalf("injected faults = %d, want 1", dropped.Injected())
	}
	if stats.Partial() {
		t.Errorf("connection loss degraded the result: lost %v", stats.LostSites())
	}
	// The retry layer learns of the severed connection by sending on it:
	// the next round to site1 is re-sent once, over the redialed one.
	if got := roundSites(stats, (*core.RoundStats).Replayed); len(got) != 1 || got[0] != "site1" {
		t.Errorf("replayed sites = %v, want [site1] (one redial by the retry layer)", got)
	}
	if got := o.Metrics.CounterValue("transport.retries"); got != 1 {
		t.Errorf("transport.retries = %d, want 1", got)
	}
	if got := o.Metrics.CounterValue("transport.pool.dials"); got != 2 {
		t.Errorf("transport.pool.dials = %d, want 2 (one pooled connection per site)", got)
	}
}

// resumedRounds counts the rounds of s restored from a checkpoint.
func resumedRounds(s *core.ExecStats) int {
	n := 0
	for _, r := range s.Rounds {
		if r.Resumed {
			n++
		}
	}
	return n
}

// roundSites lists the distinct sites that list names in any round of s,
// in first-occurrence order.
func roundSites(s *core.ExecStats, list func(*core.RoundStats) []string) []string {
	var out []string
	for i := range s.Rounds {
		for _, site := range list(&s.Rounds[i]) {
			if !slices.Contains(out, site) {
				out = append(out, site)
			}
		}
	}
	return out
}
