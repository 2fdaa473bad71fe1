package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/transport"
)

// roundOf builds a round the way the coordinator does: every record goes
// through RoundStats.add, so fixtures obey the same invariants as real
// executions (Sites sorted, totals derived).
func roundOf(name string, sites ...SiteRound) RoundStats {
	r := RoundStats{Name: name}
	for _, sr := range sites {
		r.add(sr)
	}
	return r
}

// lostSite is the record of a site that contributed nothing.
func lostSite(id, err string) SiteRound { return SiteRound{Site: id, Lost: true, Err: err} }

// assertSitesDecompose checks the one invariant every view relies on: in
// every round, Sites is sorted, lost entries are all-zero, and the live
// entries sum (max, for the parallel times) to the round totals.
func assertSitesDecompose(t testing.TB, stats *ExecStats) {
	t.Helper()
	for _, rs := range stats.Rounds {
		var sum RoundStats
		for j, s := range rs.Sites {
			if j > 0 && rs.Sites[j-1].Site >= s.Site {
				t.Errorf("round %q: sites not sorted: %q >= %q", rs.Name, rs.Sites[j-1].Site, s.Site)
			}
			if s.Lost {
				if s.Err == "" {
					t.Errorf("round %q: lost site %q carries no error", rs.Name, s.Site)
				}
				if !reflect.DeepEqual(s, lostSite(s.Site, s.Err)) {
					t.Errorf("round %q: lost site %q carries nonzero numbers: %+v", rs.Name, s.Site, s)
				}
				continue
			}
			sum.BytesToSites += s.BytesSent
			sum.BytesFromSites += s.BytesRecv
			sum.GroupsShipped += s.RowsShipped
			sum.GroupsReceived += s.RowsReturned
			sum.SiteTimeTotal += s.Compute
			sum.SiteTime = max(sum.SiteTime, s.Compute)
			sum.CommTime = max(sum.CommTime, s.Comm)
		}
		if len(rs.Sites) == 0 {
			t.Errorf("round %q recorded no sites", rs.Name)
		}
		if sum.BytesToSites != rs.BytesToSites || sum.BytesFromSites != rs.BytesFromSites ||
			sum.GroupsShipped != rs.GroupsShipped || sum.GroupsReceived != rs.GroupsReceived ||
			sum.SiteTimeTotal != rs.SiteTimeTotal || sum.SiteTime != rs.SiteTime || sum.CommTime != rs.CommTime {
			t.Errorf("round %q: site sums %+v do not decompose the totals %+v", rs.Name, sum, rs)
		}
		if n := len(rs.Responded()) + len(rs.Lost()); n != len(rs.Sites) {
			t.Errorf("round %q: %d responded + lost, %d sites", rs.Name, n, len(rs.Sites))
		}
	}
}

// TestSitesDecomposeTotals is the tentpole invariant: whatever happened
// to an execution — tagged or not, degraded, replayed, hedged, resumed
// from a checkpoint — its per-site records decompose its round totals,
// and the derived coverage lists say what the round-level lists they
// replace used to say.
func TestSitesDecomposeTotals(t *testing.T) {
	rows := testRows(240, 7)
	q := example1()
	const nSites = 3
	egil := Egil{Catalog: newTestCatalog(nSites)} // no optimizations: 3 rounds
	run := func(t *testing.T, coord *Coordinator) *ExecStats {
		t.Helper()
		_, stats, _, err := coord.Run(context.Background(), q, "flow", egil)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats.Rounds) != 3 {
			t.Fatalf("rounds = %d, want 3", len(stats.Rounds))
		}
		assertSitesDecompose(t, stats)
		return stats
	}
	allAnswered := func(t *testing.T, stats *ExecStats) {
		t.Helper()
		for _, r := range stats.Rounds {
			if got := strings.Join(r.Responded(), ","); got != "site0,site1,site2" || len(r.Lost()) != 0 {
				t.Errorf("round %s: responded %q, lost %v", r.Name, got, r.Lost())
			}
		}
	}

	t.Run("untagged", func(t *testing.T) {
		coord, _, _ := chaosCluster(t, rows, nSites)
		coord.Obs = obs.New()
		stats := run(t, coord)
		allAnswered(t, stats)
		if stats.QueryID != "" {
			t.Errorf("untagged execution carries QueryID %q", stats.QueryID)
		}
		for _, r := range stats.Rounds {
			for _, s := range r.Sites {
				if s.Remote != nil {
					t.Errorf("round %s site %s: untagged request came back profiled", r.Name, s.Site)
				}
			}
		}
		if n := len(coord.Obs.Profiles.Profiles()); n != 0 {
			t.Errorf("untagged execution published %d profile(s)", n)
		}
	})

	t.Run("tagged", func(t *testing.T) {
		coord, _, _ := chaosCluster(t, rows, nSites)
		coord.QueryID = "q-exact"
		coord.Obs = obs.New()
		stats := run(t, coord)
		allAnswered(t, stats)
		if stats.QueryID != "q-exact" {
			t.Errorf("QueryID = %q", stats.QueryID)
		}
		for _, r := range stats.Rounds {
			for _, s := range r.Sites {
				if s.Remote == nil || s.Remote.Outcome != transport.OutcomeOK {
					t.Errorf("round %s site %s: remote profile %+v", r.Name, s.Site, s.Remote)
				} else if int64(s.Remote.RowsOut) != s.RowsReturned {
					t.Errorf("round %s site %s: remote rows_out %d != returned %d",
						r.Name, s.Site, s.Remote.RowsOut, s.RowsReturned)
				}
			}
		}
		if n := len(coord.Obs.Profiles.Profiles()); n != 1 {
			t.Errorf("tagged execution published %d profile(s), want 1", n)
		}
	})

	t.Run("partial", func(t *testing.T) {
		coord, chaos, _ := chaosCluster(t, rows, nSites)
		coord.AllowPartial = true
		injectN(chaos[2], transport.OpAny, 1000, transport.Fault{Err: transport.ErrInjected})
		stats := run(t, coord)
		for _, r := range stats.Rounds {
			lost := r.Lost()
			if len(lost) != 1 || lost[0].Site != "site2" || lost[0].Err == "" {
				t.Errorf("round %s: Lost = %v, want site2 with an error", r.Name, lost)
			}
			if got := strings.Join(r.Responded(), ","); got != "site0,site1" {
				t.Errorf("round %s: Responded = %q", r.Name, got)
			}
		}
	})

	t.Run("replayed", func(t *testing.T) {
		coord, chaos, _ := retryingChaosCluster(t, rows, nSites, 2)
		chaos[1].InjectAt(transport.OpEvalRounds, 3, transport.Fault{Err: transport.ErrInjected})
		stats := run(t, coord)
		allAnswered(t, stats)
		for i, r := range stats.Rounds {
			want := ""
			if i == 2 {
				want = "site1"
			}
			if got := strings.Join(r.Replayed(), ","); got != want {
				t.Errorf("round %s: Replayed = %q, want %q", r.Name, got, want)
			}
		}
	})

	t.Run("hedged", func(t *testing.T) {
		coord, _, _ := chaosCluster(t, rows, nSites)
		// site1 becomes a replica pair over one engine holding site1's
		// partition: the primary straggles on every round call, so the
		// hedge to the clean replica wins.
		eng := site.NewEngine("site1")
		part := relation.New(flowSchema())
		for i, row := range rows {
			if i%nSites == 1 {
				part.Rows = append(part.Rows, row)
			}
		}
		eng.Load("flow", part)
		primary := transport.NewChaos()
		injectN(primary, transport.OpEvalRounds, 1000, transport.Fault{Delay: 100 * time.Millisecond})
		pair, err := transport.NewSite(transport.SiteSpec{
			ID:         "site1",
			Replicas:   []transport.Replica{{Handler: eng, Chaos: primary}, {Handler: eng}},
			Resilience: transport.Resilience{Hedge: true, HedgeDelay: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients := append([]transport.Client(nil), coord.clients...)
		clients[1] = pair.Client()
		defer clients[1].Close()
		stats := run(t, coord.Derive(clients...))
		allAnswered(t, stats)
		for _, r := range stats.Rounds[1:] {
			if got := strings.Join(r.Hedged(), ","); got != "site1" {
				t.Errorf("round %s: Hedged = %q, want site1", r.Name, got)
			}
		}
		if got := strings.Join(roundSites(stats, (*RoundStats).Hedged), ","); got != "site1" {
			t.Errorf("hedged sites = %q", got)
		}
	})

	t.Run("resumed", func(t *testing.T) {
		coord, chaos, _ := chaosCluster(t, rows, nSites)
		coord.Checkpoints = NewMemCheckpoints()
		coord.QueryID = "q-resume"
		chaos[2].InjectAt(transport.OpEvalRounds, 3, transport.Fault{Err: transport.ErrInjected})
		_, failed, err := coord.run(context.Background(), mustPlan(t, coord, q, egil))
		if err == nil {
			t.Fatal("interrupted run should fail")
		}
		stats := run(t, coord.Derive(coord.clients...))
		allAnswered(t, stats)
		// The restored rounds are the interrupted run's records, to the
		// byte: the checkpoint keeps Sites, remote profiles included.
		for i, want := range failed.Rounds {
			got := stats.Rounds[i]
			if !got.Resumed {
				t.Errorf("round %s not marked resumed", got.Name)
			}
			got.Resumed = false
			if !reflect.DeepEqual(got, want) {
				t.Errorf("restored round %s drifted from the interrupted run:\n got %+v\nwant %+v", got.Name, got, want)
			}
		}
		if resumedRounds(stats) != 2 || stats.Rounds[2].Resumed {
			t.Errorf("resumed rounds = %d, last resumed = %v", resumedRounds(stats), stats.Rounds[2].Resumed)
		}
	})
}

// TestFailedExecutionRecordsWall: an execution that dies mid-plan still
// reports how long it ran — in the statistics run hands the obs layer and
// in the published profile — instead of a zero wall time.
func TestFailedExecutionRecordsWall(t *testing.T) {
	coord, chaos, _ := chaosCluster(t, testRows(120, 3), 3)
	coord.QueryID = "q-fail"
	coord.Obs = obs.New()
	// Round 2 (step 1) fails on site1 after the base round completed.
	chaos[1].InjectAt(transport.OpEvalRounds, 2, transport.Fault{Err: transport.ErrInjected})
	_, _, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: newTestCatalog(3)})
	if err == nil {
		t.Fatal("expected the injected failure")
	}
	var entries []struct {
		QueryID string `json:"query_id"`
		WallNs  int64  `json:"wall_ns"`
		Rounds  []struct {
			Name string `json:"name"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal(coord.Obs.Profiles.EncodeJSON(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].QueryID != "q-fail" {
		t.Fatalf("published profiles = %+v, want the failed query's", entries)
	}
	if len(entries[0].Rounds) != 1 || entries[0].Rounds[0].Name != "base" {
		t.Errorf("failed execution published rounds %+v, want the completed base round", entries[0].Rounds)
	}
	if entries[0].WallNs <= 0 {
		t.Errorf("failed execution published wall_ns = %d, want > 0", entries[0].WallNs)
	}
	if h := coord.Obs.Metrics.Histogram("profile.query_wall_ns").Snapshot(); h.Count != 1 || h.Sum <= 0 {
		t.Errorf("profile.query_wall_ns = %+v, want one positive observation", h)
	}
}

// goldenStats is the execution behind testdata/*_v1.json: a resumed base
// round with a replayed site, then a degraded step with a hedged site.
func goldenStats() *ExecStats {
	ms := time.Millisecond
	r0 := &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "vector", WallNs: 5000, RowsOut: 9,
		BytesOutApprox: 144, Rounds: 1, Workers: 4, VecBatches: 1, VecRows: 40, VecFilterRows: 40, VecSelected: 30}
	r1 := &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "row", WallNs: 7000, RowsOut: 3,
		BytesOutApprox: 48, Rounds: 1}
	r2 := &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "vector", WallNs: 9000, RowsIn: 12, RowsOut: 12,
		BytesInApprox: 96, BytesOutApprox: 192, Rounds: 2, Workers: 2, VecBatches: 2, VecRows: 80, VecFilterRows: 60, VecSelected: 50}
	base := roundOf("base",
		SiteRound{Site: "site1", BytesSent: 50, BytesRecv: 100, RowsReturned: 3, Compute: ms, Comm: 2 * ms, Replays: 1, Remote: r1},
		SiteRound{Site: "site0", BytesSent: 50, BytesRecv: 200, RowsReturned: 9, Compute: 3 * ms, Comm: ms, Remote: r0})
	base.Resumed = true
	base.CoordTime = 9 * time.Microsecond
	step := roundOf("step 1",
		SiteRound{Site: "site2", BytesSent: 300, BytesRecv: 400, RowsShipped: 12, RowsReturned: 10, Compute: 2 * ms, Comm: ms},
		lostSite("site1", "dial refused"),
		SiteRound{Site: "site0", BytesSent: 400, BytesRecv: 500, RowsShipped: 12, RowsReturned: 12, Compute: 4 * ms, Comm: 3 * ms, Hedges: 2, Remote: r2})
	step.CoordTime = 7 * time.Microsecond
	return &ExecStats{QueryID: "q-golden", Wall: 5 * ms, Rounds: []RoundStats{base, step}}
}

// TestStatsJSONKeepsV1Keys: the one document ExecStats.JSON emits is the
// union of the two it replaced. testdata/stats_v1.json (skalla-coord
// -stats-json) and testdata/profile_v1.json (a coordinator /profiles
// entry) were encoded by the last commit that had two encoders, from the
// execution goldenStats describes; every key they hold must still be
// there, under the same path, with the same value.
func TestStatsJSONKeepsV1Keys(t *testing.T) {
	b, err := goldenStats().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stats_v1.json", "profile_v1.json"} {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var want any
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		assertJSONContains(t, name, want, got)
	}
}

// assertJSONContains checks that got holds everything want does: objects
// may have grown keys, arrays and scalars must match.
func assertJSONContains(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %T, want an object", path, got)
			return
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				t.Errorf("%s.%s: key dropped", path, k)
				continue
			}
			assertJSONContains(t, path+"."+k, wv, gv)
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: got %v, want %d elements", path, got, len(w))
			return
		}
		for i := range w {
			assertJSONContains(t, fmt.Sprintf("%s.%d", path, i), w[i], g[i])
		}
	default:
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	}
}

// TestConcurrentProfilesNoBleed runs tagged queries concurrently through
// separate coordinators over the SAME site engines and asserts every
// profile carries its own QueryID and decomposes its own ExecStats —
// i.e. no cross-query contamination. Run with -race.
func TestConcurrentProfilesNoBleed(t *testing.T) {
	rows := testRows(150, 11)
	const nSites = 3
	parts := make([]*relation.Relation, nSites)
	for i := range parts {
		parts[i] = relation.New(flowSchema())
	}
	for _, row := range rows {
		s := int(row[0].Int()) % nSites
		parts[s].Rows = append(parts[s].Rows, row)
	}
	var clients []transport.Client
	ids := make([]string, nSites)
	for i := 0; i < nSites; i++ {
		ids[i] = fmt.Sprintf("site%d", i)
		eng := site.NewEngine(ids[i])
		eng.Load("flow", parts[i])
		clients = append(clients, localClient(t, ids[i], eng))
	}
	cat := catalog.New(ids...)

	const queries = 8
	var wg sync.WaitGroup
	errs := make([]error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			coord := NewCoordinator(clients...)
			coord.QueryID = fmt.Sprintf("conc-%03d", q)
			coord.Epoch = fmt.Sprintf("e%03d", q)
			_, stats, _, err := coord.Run(context.Background(), example1(), "flow", Egil{Catalog: cat})
			if err != nil {
				errs[q] = err
				return
			}
			if stats.QueryID != coord.QueryID {
				errs[q] = fmt.Errorf("query %d: profile carries %q", q, stats.QueryID)
				return
			}
			for _, r := range stats.Rounds {
				for _, s := range r.Sites {
					if s.Remote == nil {
						errs[q] = fmt.Errorf("query %d: site %s has no remote profile", q, s.Site)
						return
					}
				}
			}
			// Byte-exactness must hold per query even under contention.
			sub := &testing.T{}
			assertSitesDecompose(sub, stats)
			if sub.Failed() {
				errs[q] = fmt.Errorf("query %d: profile does not decompose its own stats", q)
			}
		}(q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRenderAnalyzeGolden pins the timing-free report byte for byte on a
// handcrafted execution, so renderer drift cannot hide behind real runs.
func TestRenderAnalyzeGolden(t *testing.T) {
	plan := &Plan{Detail: "flow", Keys: []string{"SourceAS"}, Steps: []Step{{Name: "base"}}}
	stats := &ExecStats{
		QueryID: "q-golden",
		Rounds: []RoundStats{roundOf("base",
			SiteRound{Site: "site0", BytesSent: 50, BytesRecv: 200, RowsReturned: 9,
				Remote: &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "vector",
					RowsOut: 9, VecRows: 40, VecSelected: 30, Rounds: 1}},
			SiteRound{Site: "site1", BytesSent: 50, BytesRecv: 100, RowsReturned: 3, Replays: 1,
				Remote: &transport.SiteProfile{Outcome: transport.OutcomeOK, Engine: "row",
					RowsOut: 3, Rounds: 1}},
		)},
		Wall: 5 * time.Millisecond,
	}
	got := RenderAnalyze(plan, stats, AnalyzeOptions{})
	want := plan.Explain() +
		"analyze: 1 round(s) executed\n" +
		"  round base: 2/2 sites, 100 B to sites / 300 B from sites, 0 groups shipped / 12 received\n" +
		"    site0: shipped 0 rows, returned 9 rows, engine vector, vec rows 40 (selected 30), outcome ok\n" +
		"    site1: shipped 0 rows, returned 3 rows, 1 replay(s), engine row, outcome ok\n" +
		"    row imbalance 1.50x\n" +
		"totals: 400 bytes moved, 12 groups moved\n"
	if got != want {
		t.Errorf("RenderAnalyze =\n%s\nwant\n%s", got, want)
	}
	// The same input must render identically on repeat — the determinism
	// contract behind golden EXPLAIN ANALYZE output.
	if again := RenderAnalyze(plan, stats, AnalyzeOptions{}); again != got {
		t.Error("RenderAnalyze is not deterministic for fixed input")
	}
	// Timing mode adds clock readings.
	timed := RenderAnalyze(plan, stats, AnalyzeOptions{Timing: true})
	if !strings.Contains(timed, "wall 5ms") || !strings.Contains(timed, "site(max)") {
		t.Errorf("timed report missing durations:\n%s", timed)
	}
}
