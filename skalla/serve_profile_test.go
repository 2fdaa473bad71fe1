package skalla

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeProfilesAndSlowQuery: every served query is QueryID-tagged, so
// the shared obs sink must accumulate one profile tree per query, the
// per-query latency histogram must fill, and a SlowQuery threshold of one
// nanosecond must flag every query as slow.
func TestServeProfilesAndSlowQuery(t *testing.T) {
	sink := obs.New()
	cluster, err := NewLocalCluster(ClusterConfig{Sites: 2, Settings: Settings{Obs: sink}})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	parts, _ := flowParts(2)
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	svc, err := NewQueryService(cluster, ServeConfig{MaxConcurrent: 2, SlowQuery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const queries = 3
	for i := 0; i < queries; i++ {
		if _, err := svc.Query(context.Background(), serveQueries[i%len(serveQueries)]); err != nil {
			t.Fatal(err)
		}
	}

	// In-process the sites and the coordinator share the sink, so the ring
	// interleaves both kinds: the coordinator's per-query trees ("rounds"
	// is an array) and each site's per-request captures ("site" at top
	// level). Over the wire each daemon keeps its own ring instead.
	var entries []map[string]any
	if err := json.Unmarshal(sink.Profiles.EncodeJSON(), &entries); err != nil {
		t.Fatalf("profiles JSON: %v", err)
	}
	trees, captures := 0, 0
	seen := map[string]bool{}
	for _, e := range entries {
		qid, _ := e["query_id"].(string)
		if qid == "" {
			t.Errorf("profile entry without query_id: %v", e)
		}
		if _, isTree := e["rounds"].([]any); !isTree {
			captures++
			if site, _ := e["site"].(string); site == "" {
				t.Errorf("site capture without site: %v", e)
			}
			if outcome, _ := e["outcome"].(string); outcome != "ok" {
				t.Errorf("site capture outcome = %v", e["outcome"])
			}
			continue
		}
		trees++
		if seen[qid] {
			t.Errorf("query profile %q duplicated", qid)
		}
		seen[qid] = true
		if wall, _ := e["wall_ns"].(float64); wall <= 0 {
			t.Errorf("profile %s wall_ns = %v", qid, e["wall_ns"])
		}
	}
	if trees != queries {
		t.Errorf("coordinator profile trees = %d, want %d", trees, queries)
	}
	// Two sites per query, one capture each per round (≥1 round).
	if captures < 2*queries {
		t.Errorf("site captures = %d, want >= %d", captures, 2*queries)
	}

	if got := sink.Metrics.Histogram("serve.query_ns").Snapshot().Count; got != queries {
		t.Errorf("serve.query_ns count = %d, want %d", got, queries)
	}
	if got := sink.Metrics.CounterValue("serve.slow_queries"); got != queries {
		t.Errorf("serve.slow_queries = %d, want %d", got, queries)
	}
	if got := len(sink.Events.ByKind(obs.EventSlowQuery)); got != queries {
		t.Errorf("slow-query events = %d, want %d", got, queries)
	}
	if got := sink.Metrics.CounterValue("coord.queries_profiled"); got != queries {
		t.Errorf("coord.queries_profiled = %d, want %d", got, queries)
	}
}
