package skalla

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/site"
)

// holdNext holds the next request eng handles: Handle reads the tracer
// clock first thing, and the armed clock blocks there until release is
// called. entered is closed when the request arrives. It replaces eng's
// obs sink.
func holdNext(eng *site.Engine) (entered <-chan struct{}, release func()) {
	var armed atomic.Bool
	in, out := make(chan struct{}), make(chan struct{})
	o := obs.New()
	o.Tracer.SetNow(func() time.Time {
		if armed.CompareAndSwap(true, false) {
			close(in)
			<-out
		}
		return time.Now()
	})
	armed.Store(true)
	eng.SetObs(o)
	var once sync.Once
	return in, func() { once.Do(func() { close(out) }) }
}

// siteBytes is one site's traffic in one round: the bytes it was sent and
// the bytes it answered with.
type siteBytes struct {
	round, site string
	sent, recv  int64
}

func roundBytes(rounds []core.RoundStats) []siteBytes {
	var out []siteBytes
	for _, r := range rounds {
		for _, s := range r.Sites {
			out = append(out, siteBytes{r.Name, s.Site, s.BytesSent, s.BytesRecv})
		}
	}
	return out
}

// sameBytes describes how got differs from want, or returns "".
func sameBytes(got, want []siteBytes) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d site rounds, want %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; g != w {
			return fmt.Sprintf("%s %s: sent %d recv %d, alone sent %d recv %d", g.round, g.site, g.sent, g.recv, w.sent, w.recv)
		}
	}
	return ""
}

// analyzeBytes returns the per-round bytes of every EXPLAIN ANALYZE
// execution profiled into o, by query ID. In process the sites profile
// each request into the same ring; their entries ("rounds" a count, not
// a list) are skipped.
func analyzeBytes(t *testing.T, o *obs.Obs) map[string][]siteBytes {
	t.Helper()
	out := map[string][]siteBytes{}
	for _, raw := range o.Profiles.Profiles() {
		var p struct {
			QueryID string          `json:"query_id"`
			Rounds  json.RawMessage `json:"rounds"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(p.QueryID, "analyze-") || !strings.HasPrefix(string(p.Rounds), "[") {
			continue
		}
		var rounds []core.RoundStats
		if err := json.Unmarshal(p.Rounds, &rounds); err != nil {
			t.Fatal(err)
		}
		out[p.QueryID] = roundBytes(rounds)
	}
	return out
}

// TestSharedClusterExactBytes: queries running at once on one cluster —
// sharing its clients and their connections, with an EXPLAIN ANALYZE
// beside them — each report the per-round, per-site bytes of the same
// query run alone, in process and over loopback TCP.
func TestSharedClusterExactBytes(t *testing.T) {
	const (
		workers   = 4
		perWorker = 10
		analyzes  = 5
	)
	analyze := "EXPLAIN ANALYZE SELECT SourceAS, count(*) AS n FROM flow GROUP BY SourceAS"
	for _, useTCP := range []bool{false, true} {
		o := obs.New()
		o.Profiles = obs.NewProfileLog(1024) // every profile of the test
		cluster, err := NewLocalCluster(ClusterConfig{Sites: 3, UseTCP: useTCP, Settings: Settings{Obs: o}})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		parts, _ := flowParts(3)
		if err := cluster.Load("flow", parts); err != nil {
			t.Fatal(err)
		}
		query := func() ([]siteBytes, error) {
			res, err := cluster.Query(example1(), "flow", NoOptimizations)
			if err != nil {
				return nil, err
			}
			return roundBytes(res.Stats.Rounds), nil
		}
		var alone []siteBytes
		for i := 0; i < 2; i++ {
			if alone, err = query(); err != nil {
				t.Fatal(err)
			}
			if _, err := cluster.SQL(analyze, NoOptimizations); err != nil {
				t.Fatal(err)
			}
		}
		before := analyzeBytes(t, o)
		if len(before) != 2 {
			t.Fatalf("tcp=%v: %d analyze profiles, want 2", useTCP, len(before))
		}
		// The later of the two ran on warm connections.
		last := ""
		for id := range before {
			last = max(last, id)
		}
		analyzeAlone := before[last]

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					got, err := query()
					if err != nil {
						t.Error(err)
						return
					}
					if diff := sameBytes(got, alone); diff != "" {
						t.Errorf("tcp=%v: concurrent query: %s", useTCP, diff)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < analyzes; i++ {
				if _, err := cluster.SQL(analyze, NoOptimizations); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()

		after := analyzeBytes(t, o)
		if len(after) != len(before)+analyzes {
			t.Fatalf("tcp=%v: %d analyze profiles, want %d", useTCP, len(after), len(before)+analyzes)
		}
		for id, got := range after {
			if _, old := before[id]; old {
				continue
			}
			if diff := sameBytes(got, analyzeAlone); diff != "" {
				t.Errorf("tcp=%v: concurrent %s: %s", useTCP, id, diff)
			}
		}
	}
}

// TestSharedClusterCancelIsolation: a query whose call to site 0 is held
// at the site holds only the pooled connection it borrowed. A sibling
// query on the same cluster, under a 100 ms deadline, answers before the
// held call is released — in process and over loopback TCP.
func TestSharedClusterCancelIsolation(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, UseTCP: useTCP})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		parts, _ := flowParts(2)
		if err := cluster.Load("flow", parts); err != nil {
			t.Fatal(err)
		}
		entered, release := holdNext(cluster.engines[0])
		held := make(chan error, 1)
		go func() {
			_, err := cluster.Query(example1(), "flow", NoOptimizations)
			held <- err
		}()
		<-entered

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		sibling := make(chan error, 1)
		go func() {
			_, err := cluster.QueryContext(ctx, example1(), "flow", NoOptimizations)
			sibling <- err
		}()
		select {
		case err := <-sibling:
			if err != nil {
				t.Errorf("tcp=%v: sibling query: %v", useTCP, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("tcp=%v: sibling query still waiting on the held call after 2s", useTCP)
			release()
			<-sibling
		}
		cancel()
		release()
		if err := <-held; err != nil {
			t.Errorf("tcp=%v: held query: %v", useTCP, err)
		}
	}
}
