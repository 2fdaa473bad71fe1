package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/transport"
)

func relationFromRows(rows []relation.Row) *relation.Relation {
	r := relation.New(flowSchema())
	r.Rows = rows
	return r
}

func sampleCheckpointWith(x *relation.Relation) *Checkpoint {
	us := time.Microsecond
	base := roundOf("base",
		SiteRound{Site: "site1", BytesSent: 4, BytesRecv: 12, RowsShipped: 1, RowsReturned: 1, Compute: 2 * us, Comm: 11 * us,
			Remote: &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "vector", RowsOut: 1, Rounds: 1}},
		SiteRound{Site: "site0", BytesSent: 6, BytesRecv: 8, RowsReturned: 1, Compute: 3 * us, Comm: 5 * us})
	base.CoordTime = 7 * us
	step := roundOf("step 1",
		SiteRound{Site: "site0", BytesSent: 9, Replays: 1, Hedges: 2},
		lostSite("site1", "boom"))
	step.Resumed = true
	return &Checkpoint{Epoch: "deadbeef00000000", Done: 2, X: x, Rounds: []RoundStats{base, step}}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	x := relationFromRows(testRows(5, 9))
	cp := sampleCheckpointWith(x)

	b1, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("checkpoint encoding is not deterministic")
	}

	got, err := DecodeCheckpoint(b1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != cp.Epoch || got.Done != cp.Done {
		t.Errorf("decoded header = (%s, %d), want (%s, %d)", got.Epoch, got.Done, cp.Epoch, cp.Done)
	}
	if got.X.Len() != x.Len() || !got.X.Schema.Equal(x.Schema) {
		t.Errorf("decoded X: %d rows, schema %s", got.X.Len(), got.X.Schema)
	}
	if len(got.Rounds) != len(cp.Rounds) {
		t.Fatalf("decoded %d rounds, want %d", len(got.Rounds), len(cp.Rounds))
	}
	// The rounds survive whole: totals, durations, and every site's
	// record down to the piggy-backed remote profile.
	if !reflect.DeepEqual(got.Rounds, cp.Rounds) {
		t.Errorf("decoded rounds =\n%+v\nwant\n%+v", got.Rounds, cp.Rounds)
	}
	r1 := got.Rounds[1]
	if !r1.Resumed || len(r1.Replayed()) != 1 || r1.Replayed()[0] != "site0" {
		t.Errorf("round 1 recovery fields lost: %+v", r1)
	}
	if lost := r1.Lost(); len(lost) != 1 || lost[0].Site != "site1" {
		t.Errorf("round 1 lost sites lost: %+v", lost)
	}
	if got.Rounds[0].SiteTime != 3*time.Microsecond || got.Rounds[0].CommTime != 11*time.Microsecond {
		t.Errorf("round 0 durations lost: %+v", got.Rounds[0])
	}
	assertSitesDecompose(t, &ExecStats{Rounds: got.Rounds})
	// Re-encoding the decoded checkpoint is byte-identical: the JSON shape
	// loses nothing the encoding itself carries.
	b3, err := EncodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b3) {
		t.Error("decode → encode is not a fixed point")
	}
}

// TestFormat1CheckpointRefused: testdata/checkpoint_v1.json was written
// by the last commit whose checkpoints listed round coverage without the
// per-site records. Read as today's format its rounds would decode with
// totals but no sites — so it must be refused whole, and a coordinator
// that finds one starts the execution fresh instead of resuming from it.
func TestFormat1CheckpointRefused(t *testing.T) {
	v1, err := os.ReadFile("testdata/checkpoint_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if cp, err := DecodeCheckpoint(v1); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("DecodeCheckpoint(format 1) = (%+v, %v), want a format error", cp, err)
	}

	dir := t.TempDir()
	store, err := NewFileCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, cat, whole := cluster(t, testRows(120, 5), 3, true)
	coord.Checkpoints = store
	coord.Epoch = "deadbeef00000000" // the epoch the v1 file was saved under
	coord.Obs = obs.New()
	if err := os.WriteFile(store.path(coord.Epoch), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	q := example1()
	got, stats, _, err := coord.Run(context.Background(), q, "flow", Egil{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "fresh start", got, want, q.Keys())
	if stats.ResumedRounds() != 0 {
		t.Errorf("resumed %d round(s) from a format-1 checkpoint", stats.ResumedRounds())
	}
	assertSitesDecompose(t, stats)
	if n := coord.Obs.Metrics.CounterValue("checkpoint.errors"); n != 1 {
		t.Errorf("checkpoint.errors = %d, want 1", n)
	}
	var sawFresh bool
	for _, ev := range coord.Obs.Events.Events() {
		sawFresh = sawFresh || strings.Contains(ev.Msg, "checkpoint load failed; starting fresh")
	}
	if !sawFresh {
		t.Error("no \"checkpoint load failed; starting fresh\" event")
	}
}

func TestCheckpointStores(t *testing.T) {
	x := relationFromRows(testRows(4, 10))
	fileStore, err := NewFileCheckpoints(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store CheckpointStore
	}{
		{"mem", NewMemCheckpoints()},
		{"file", fileStore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := sampleCheckpointWith(x)
			if got, err := tc.store.Load(cp.Epoch); err != nil || got != nil {
				t.Fatalf("load before save = (%v, %v), want (nil, nil)", got, err)
			}
			if err := tc.store.Save(cp); err != nil {
				t.Fatal(err)
			}
			got, err := tc.store.Load(cp.Epoch)
			if err != nil || got == nil {
				t.Fatalf("load: %v / %v", got, err)
			}
			if got.Done != cp.Done || got.X.Len() != x.Len() {
				t.Errorf("loaded checkpoint = done %d, %d rows", got.Done, got.X.Len())
			}
			// The loaded checkpoint must not alias the saved one.
			got.X.Rows[0][0] = got.X.Rows[0][1]
			again, err := tc.store.Load(cp.Epoch)
			if err != nil {
				t.Fatal(err)
			}
			if again.X.Rows[0][0] == got.X.Rows[0][0] && &again.X.Rows[0][0] == &got.X.Rows[0][0] {
				t.Error("loaded checkpoints alias each other")
			}
			// Overwrite with a later round.
			cp.Done = 3
			if err := tc.store.Save(cp); err != nil {
				t.Fatal(err)
			}
			if got, _ := tc.store.Load(cp.Epoch); got.Done != 3 {
				t.Errorf("overwrite: done = %d, want 3", got.Done)
			}
			if err := tc.store.Clear(cp.Epoch); err != nil {
				t.Fatal(err)
			}
			if got, err := tc.store.Load(cp.Epoch); err != nil || got != nil {
				t.Fatalf("load after clear = (%v, %v), want (nil, nil)", got, err)
			}
			// Clearing an absent epoch is not an error.
			if err := tc.store.Clear("no-such-epoch"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPlanEpochDeterministic(t *testing.T) {
	coord, cat, _ := cluster(t, testRows(40, 11), 3, true)
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts Options) *Plan {
		p, err := Egil{Catalog: cat, Options: opts}.BuildPlan(example1(), "flow", schema)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := build(Options{}), build(Options{})
	if PlanEpoch(p1) != PlanEpoch(p2) {
		t.Error("same plan, different epochs")
	}
	for i := 0; i < 10; i++ { // catch iteration-order leakage
		if PlanEpoch(p1) != PlanEpoch(p2) {
			t.Fatal("epoch unstable across calls")
		}
	}
	// A different plan shape must get a different epoch.
	if opt := build(DefaultOptions); plansDiffer(p1, opt) && PlanEpoch(p1) == PlanEpoch(opt) {
		t.Error("different plans share an epoch")
	}
	// The same plan over a different site set is a different execution.
	sub := NewCoordinator(coord.Clients()[:2]...)
	if coord.executionEpoch(p1) == sub.executionEpoch(p1) {
		t.Error("different site sets share an execution epoch")
	}
	if coord.executionEpoch(p1) != coord.executionEpoch(p1) {
		t.Error("execution epoch unstable")
	}
}

// TestPlanEpochStable: epochs name checkpoints on disk, so a checkpoint
// written by an older coordinator must still resume. Every plan of the
// wire matrix keeps the epoch testdata/epochs_d26309c.json recorded for it
// by the same harness at commit d26309c.
func TestPlanEpochStable(t *testing.T) {
	b, err := os.ReadFile("testdata/epochs_d26309c.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct{ Label, Epoch string }
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	cases := wireMatrix(t, sameEngine)
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d recorded", len(cases), len(want))
	}
	for i, c := range cases {
		if got := PlanEpoch(c.plan); c.Label != want[i].Label || got != want[i].Epoch {
			t.Errorf("%s: epoch %s, recorded %s for %s", c.Label, got, want[i].Epoch, want[i].Label)
		}
	}
}

func plansDiffer(a, b *Plan) bool {
	return a.Rounds() != b.Rounds() || a.Steps[0].base() != b.Steps[0].base()
}

// mustPlan rebuilds the plan a coordinator's Run would execute, for
// computing its execution epoch in tests.
func mustPlan(t *testing.T, coord *Coordinator, q gmdj.Query, egil Egil) *Plan {
	t.Helper()
	schema, err := coord.DetailSchema(context.Background(), "flow")
	if err != nil {
		t.Fatal(err)
	}
	p, err := egil.BuildPlan(q, "flow", schema)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestResumeAfterInterruption is the core recovery scenario: a
// multi-round execution dies at the start of its last round, and a fresh
// coordinator over the same sites — same plan, same checkpoint store —
// completes it. The final relation and every completed round's byte and
// group counters must match an uninterrupted reference run exactly.
func TestResumeAfterInterruption(t *testing.T) {
	rows := testRows(240, 7)
	q := example1()
	egil := Egil{Catalog: newTestCatalog(3)} // no optimizations: 3 rounds

	// Reference: recovery enabled, no faults.
	ref, _, whole := chaosCluster(t, rows, 3, 100)
	ref.Checkpoints = NewMemCheckpoints()
	refRel, refStats, _, err := ref.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.ResumedRounds() != 0 {
		t.Fatalf("reference run resumed %d rounds", refStats.ResumedRounds())
	}

	// Interrupted: the second evalRounds round (step 2) dies on site2.
	coord, chaos, _ := chaosCluster(t, rows, 3, 101)
	store := NewMemCheckpoints()
	coord.Checkpoints = store
	o := obs.New()
	coord.Obs = o
	chaos[2].InjectAt(transport.OpEvalRounds, 2, transport.Fault{Err: transport.ErrInjected})
	if _, _, _, err := coord.Run(context.Background(), q, "flow", egil); err == nil {
		t.Fatal("interrupted run should fail")
	}
	if got := o.Metrics.CounterValue("checkpoint.written"); got != 2 {
		t.Fatalf("checkpoint.written = %d, want 2 (base + step 1)", got)
	}

	// Snapshot the interrupted run's recorded rounds for exact comparison.
	interruptedCP, err := store.Load(coord.executionEpoch(mustPlan(t, coord, q, egil)))
	if err != nil || interruptedCP == nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}

	// Resume: a fresh coordinator (same sites, same store) picks up after
	// round 2 and only executes the last round.
	coord2 := NewCoordinator(coord.Clients()...)
	coord2.Checkpoints = store
	o2 := obs.New()
	coord2.Obs = o2
	got, stats, _, err := coord2.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "resumed", got, want, q.Keys())

	if stats.ResumedRounds() != 2 {
		t.Errorf("resumed rounds = %d, want 2", stats.ResumedRounds())
	}
	if got := o2.Metrics.CounterValue("checkpoint.resumed"); got != 1 {
		t.Errorf("checkpoint.resumed = %d, want 1", got)
	}
	if got := o2.Metrics.CounterValue("coord.rounds_resumed"); got != 2 {
		t.Errorf("coord.rounds_resumed = %d, want 2", got)
	}
	if len(stats.Rounds) != len(refStats.Rounds) {
		t.Fatalf("rounds = %d, want %d", len(stats.Rounds), len(refStats.Rounds))
	}
	// Byte-exactness: the interrupted-then-resumed execution moved exactly
	// the bytes and groups of the uninterrupted one, round by round —
	// restored rounds carry the original run's numbers, the re-executed
	// round recomputes them identically. The one permitted wiggle is the
	// response direction: every response carries the site's measured
	// ComputeNs, and gob's varint encoding makes that field's width vary
	// by a byte or two between ANY two runs — interrupted or not — so
	// BytesFromSites gets a small tolerance while everything structural
	// (request bytes, group counts) must match exactly.
	const computeNsJitter = 16
	for i, r := range stats.Rounds {
		rr := refStats.Rounds[i]
		if r.BytesToSites != rr.BytesToSites {
			t.Errorf("round %s: bytes to sites %d, want %d", r.Name, r.BytesToSites, rr.BytesToSites)
		}
		if d := r.BytesFromSites - rr.BytesFromSites; d < -computeNsJitter || d > computeNsJitter {
			t.Errorf("round %s: bytes from sites %d, want %d±%d",
				r.Name, r.BytesFromSites, rr.BytesFromSites, computeNsJitter)
		}
		if r.GroupsShipped != rr.GroupsShipped || r.GroupsReceived != rr.GroupsReceived {
			t.Errorf("round %s: groups %d/%d, want %d/%d",
				r.Name, r.GroupsShipped, r.GroupsReceived, rr.GroupsShipped, rr.GroupsReceived)
		}
	}
	if stats.Groups() != refStats.Groups() {
		t.Errorf("total groups = %d, want %d", stats.Groups(), refStats.Groups())
	}
	// The restored rounds are exact to the last byte against what the
	// interrupted run itself recorded: the checkpoint round-trip loses
	// nothing, jitter tolerance or not.
	for i, cr := range interruptedCP.Rounds {
		r := stats.Rounds[i]
		if r.BytesToSites != cr.BytesToSites || r.BytesFromSites != cr.BytesFromSites ||
			r.GroupsShipped != cr.GroupsShipped || r.GroupsReceived != cr.GroupsReceived {
			t.Errorf("restored round %s drifted from its checkpoint: %+v vs %+v", r.Name, r, cr)
		}
		if !r.Resumed {
			t.Errorf("restored round %s not marked resumed", r.Name)
		}
	}
	assertSameRelation(t, "reference", refRel, want.Clone(), q.Keys())

	// Completion cleared the checkpoint: a rerun is a fresh execution.
	rerun, stats2, _, err := coord2.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ResumedRounds() != 0 {
		t.Errorf("rerun after completion resumed %d rounds", stats2.ResumedRounds())
	}
	assertSameRelation(t, "rerun", rerun, want.Clone(), q.Keys())
}

// TestReplayAfterTransportFailure: with Replays enabled, a transport
// failure mid-round re-issues the (epoch, round)-tagged request instead
// of aborting the execution, and the replayed site is accounted in the
// round's statistics.
func TestReplayAfterTransportFailure(t *testing.T) {
	rows := testRows(240, 8)
	q := example1()
	egil := Egil{Catalog: newTestCatalog(3)}

	coord, chaos, whole := chaosCluster(t, rows, 3, 102)
	coord.Replays = 1
	o := obs.New()
	coord.Obs = o
	// Site 1's second evalRounds call (step 2) dies at the transport; the
	// coordinator replays it within the same round.
	chaos[1].InjectAt(transport.OpEvalRounds, 2, transport.Fault{Err: transport.ErrInjected})
	got, stats, _, err := coord.Run(context.Background(), q, "flow", egil)
	if err != nil {
		t.Fatalf("run with mid-round transport failure: %v", err)
	}
	want, err := gmdj.EvalQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "replayed", got, want, q.Keys())
	if stats.Partial() {
		t.Errorf("replay must not degrade the result: lost %v", stats.LostSites())
	}
	if rp := stats.ReplayedSites(); len(rp) != 1 || rp[0] != "site1" {
		t.Errorf("replayed sites = %v, want [site1]", rp)
	}
	last := stats.Rounds[len(stats.Rounds)-1]
	if rp := last.Replayed(); len(rp) != 1 || rp[0] != "site1" {
		t.Errorf("last round replayed = %v, want [site1]", rp)
	}
	if got := o.Metrics.CounterValue("coord.replays"); got != 1 {
		t.Errorf("coord.replays = %d, want 1", got)
	}
	if got := o.Events.CountKind(obs.EventReplay); got != 1 {
		t.Errorf("replay events = %d, want 1", got)
	}
	// Without Replays the same fault aborts the run (the old behavior).
	coordStrict, chaosStrict, _ := chaosCluster(t, rows, 3, 103)
	chaosStrict[1].InjectAt(transport.OpEvalRounds, 2, transport.Fault{Err: transport.ErrInjected})
	if _, _, _, err := coordStrict.Run(context.Background(), q, "flow", egil); err == nil {
		t.Fatal("replays disabled: transport failure should abort")
	}
}

// TestFileCheckpointsConcurrentExecutions: the file store is shared by
// every concurrently-running execution of the serve scheduler — each
// saves under its own epoch, and hammering the same epoch from many
// goroutines (a replayed coordinator racing its predecessor) must never
// commit a torn file. The old implementation used one fixed temp path
// per epoch, so concurrent saves interleaved their writes before rename.
func TestFileCheckpointsConcurrentExecutions(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}

	const epochs = 4
	const saversPerEpoch = 8
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, epochs*saversPerEpoch)
	for e := 0; e < epochs; e++ {
		epoch := fmt.Sprintf("epoch-%d", e)
		for s := 0; s < saversPerEpoch; s++ {
			wg.Add(1)
			go func(epoch string) {
				defer wg.Done()
				for r := 1; r <= rounds; r++ {
					cp := sampleCheckpointWith(relationFromRows(testRows(4, 10)))
					cp.Epoch, cp.Done = epoch, r
					if err := store.Save(cp); err != nil {
						errs <- err
						return
					}
					// Every load between saves must decode cleanly: a
					// torn rename would surface here as a JSON error.
					if _, err := store.Load(epoch); err != nil {
						errs <- err
						return
					}
				}
			}(epoch)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Each epoch's file is intact, holds that epoch, and is the only
	// artifact left — no stray temp files survive the races.
	for e := 0; e < epochs; e++ {
		epoch := fmt.Sprintf("epoch-%d", e)
		cp, err := store.Load(epoch)
		if err != nil || cp == nil {
			t.Fatalf("load %s: %v / %v", epoch, cp, err)
		}
		if cp.Epoch != epoch {
			t.Errorf("epoch %s holds checkpoint for %s", epoch, cp.Epoch)
		}
		if cp.Done < 1 || cp.Done > rounds {
			t.Errorf("epoch %s: done = %d", epoch, cp.Done)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != epochs {
		var names []string
		for _, en := range entries {
			names = append(names, en.Name())
		}
		t.Fatalf("checkpoint dir holds %v, want %d committed files", names, epochs)
	}
}
