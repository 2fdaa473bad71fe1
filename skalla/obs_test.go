package skalla

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// TestClusterObservability runs one distributed query over real TCP
// sites with an Obs sink wired through every tier, then checks the two
// core guarantees: the coordinator's logical byte counters equal the
// ExecStats totals exactly, and the trace contains query/round/rpc
// spans on per-site tracks.
func TestClusterObservability(t *testing.T) {
	for _, useTCP := range []bool{false, true} {
		o := obs.New()
		cluster, err := NewLocalCluster(ClusterConfig{Sites: 3, UseTCP: useTCP, Settings: Settings{Obs: o}})
		if err != nil {
			t.Fatal(err)
		}
		parts, _ := flowParts(3)
		if err := cluster.Load("flow", parts); err != nil {
			cluster.Close()
			t.Fatal(err)
		}
		res, err := cluster.Query(example1(), "flow", AllOptimizations)
		cluster.Close()
		if err != nil {
			t.Fatal(err)
		}
		stats := res.Stats

		// The coordinator publishes its per-round counters from ExecStats
		// itself, so these must match to the byte.
		var wantTo, wantFrom int64
		for _, r := range stats.Rounds {
			wantTo += r.BytesToSites
			wantFrom += r.BytesFromSites
		}
		m := o.Metrics
		if got := m.CounterValue("coord.bytes_to_sites"); got != wantTo {
			t.Errorf("useTCP=%v: coord.bytes_to_sites = %d, ExecStats says %d", useTCP, got, wantTo)
		}
		if got := m.CounterValue("coord.bytes_from_sites"); got != wantFrom {
			t.Errorf("useTCP=%v: coord.bytes_from_sites = %d, ExecStats says %d", useTCP, got, wantFrom)
		}
		if got := m.CounterValue("coord.rounds"); got != int64(len(stats.Rounds)) {
			t.Errorf("useTCP=%v: coord.rounds = %d, want %d", useTCP, got, len(stats.Rounds))
		}
		if got := m.CounterValue("coord.queries"); got != 1 {
			t.Errorf("useTCP=%v: coord.queries = %d, want 1", useTCP, got)
		}
		// The raw transport counters include non-round ops (load), so
		// they bound the logical totals from above.
		if raw := m.CounterValue("transport.bytes_sent"); raw < wantTo {
			t.Errorf("useTCP=%v: transport.bytes_sent = %d < coord total %d", useTCP, raw, wantTo)
		}
		if got := m.CounterValue("site.rounds_served"); got == 0 {
			t.Errorf("useTCP=%v: site.rounds_served not published", useTCP)
		}

		// Trace structure: a query span, at least one round span, and one
		// rpc span per site track.
		var buf bytes.Buffer
		if err := o.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Ph   string            `json:"ph"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatalf("invalid trace JSON: %v", err)
		}
		var haveQuery, haveRound, haveRPC bool
		siteTracks := map[string]bool{}
		for _, e := range trace.TraceEvents {
			switch {
			case e.Ph == "M" && strings.HasPrefix(e.Args["name"], "site:"):
				siteTracks[e.Args["name"]] = true
			case e.Name == "query":
				haveQuery = true
			case strings.HasPrefix(e.Name, "round:"):
				haveRound = true
			case strings.HasPrefix(e.Name, "rpc:"):
				haveRPC = true
			}
		}
		if !haveQuery || !haveRound || !haveRPC {
			t.Errorf("useTCP=%v: trace missing spans: query=%v round=%v rpc=%v",
				useTCP, haveQuery, haveRound, haveRPC)
		}
		if len(siteTracks) != 3 {
			t.Errorf("useTCP=%v: %d site tracks, want 3: %v", useTCP, len(siteTracks), siteTracks)
		}
	}
}

// TestClusterObservabilityPartial checks degraded executions surface
// site-lost and partial events with lost-site attribution.
func TestClusterObservabilityPartial(t *testing.T) {
	parts, _ := flowParts(2)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	o := obs.New()
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second, AllowPartial: true, Obs: o},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	servers[1][0].Close() // site1 is gone, no replica

	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !res.Stats.Partial() {
		t.Fatal("stats do not mark the result partial")
	}
	if got := len(o.Events.ByKind(obs.EventSiteLost)); got == 0 {
		t.Error("no site-lost events for a partial execution")
	}
	for _, e := range o.Events.ByKind(obs.EventSiteLost) {
		if e.Site != "site1" {
			t.Errorf("site-lost event names %q, want site1", e.Site)
		}
	}
	if got := len(o.Events.ByKind(obs.EventPartial)); got != 1 {
		t.Errorf("partial events = %d, want 1", got)
	}
	if got := o.Metrics.CounterValue("coord.queries_partial"); got != 1 {
		t.Errorf("coord.queries_partial = %d, want 1", got)
	}
	if got := o.Metrics.CounterValue("coord.sites_lost"); got == 0 {
		t.Error("coord.sites_lost not published")
	}
}
