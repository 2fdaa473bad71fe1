package skalla

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gmdj"
	"repro/internal/relation"
	"repro/internal/site"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// startFlowSite starts n TCP servers (replicas) over one shared engine
// loaded with part, returning their addresses joined with the replica
// separator plus the servers for individual shutdown.
func startFlowSite(t *testing.T, id string, part *relation.Relation, n int) (string, []*transport.Server) {
	t.Helper()
	eng := site.NewEngine(id)
	eng.Load("flow", part)
	addrs := make([]string, n)
	servers := make([]*transport.Server, n)
	for i := 0; i < n; i++ {
		srv := transport.NewServer(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i], servers[i] = addr, srv
		t.Cleanup(func() { srv.Close() })
	}
	return strings.Join(addrs, "|"), servers
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

func assertSameResult(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	got.SortBy("SourceAS", "DestAS")
	want.SortBy("SourceAS", "DestAS")
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !value.Equal(got.Rows[i][j], want.Rows[i][j]) &&
				!(got.Rows[i][j].IsNull() && want.Rows[i][j].IsNull()) {
				t.Errorf("%s: row %d col %d: %v != %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestConnectWithReplicaFailover: each site is addressed as
// "primary|secondary"; killing a primary mid-session transparently fails
// the session over to the secondary with identical query results.
func TestConnectWithReplicaFailover(t *testing.T) {
	parts, whole := flowParts(2)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 2)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second},
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "before failover", res.Relation, want)

	// Kill site1's primary; the next query must ride the secondary.
	servers[1][0].Close()
	res, err = cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("query after primary loss: %v", err)
	}
	assertSameResult(t, "after failover", res.Relation, want)
	if res.Stats.Partial() {
		t.Errorf("failover degraded the result: lost %v", res.Stats.LostSites())
	}
}

// TestConnectWithDegradedPartial: with AllowPartial a dead site yields a
// partial result over the survivors, named in the stats.
func TestConnectWithDegradedPartial(t *testing.T) {
	parts, _ := flowParts(2)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second, AllowPartial: true},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	servers[1][0].Close() // site1 is gone, no replica

	want, err := gmdj.EvalQuery(parts[0], example1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	assertSameResult(t, "degraded", res.Relation, want)
	if !res.Stats.Partial() {
		t.Fatal("stats do not mark the result partial")
	}
	if lost := res.Stats.LostSites(); len(lost) != 1 || lost[0] != "site1" {
		t.Errorf("LostSites = %v, want [site1]", lost)
	}
}

// TestSQLRefusesPartial: with AllowPartial and a dead site, SQL — GROUP BY
// and CUBE BY, through Cluster.SQL and a QueryService — fails naming the
// lost site instead of answering from the survivors: a SQL result carries
// no coverage. The same cluster's GMDJ query still degrades to a partial
// result.
func TestSQLRefusesPartial(t *testing.T) {
	parts, _ := flowParts(2)
	var sites []string
	var servers [][]*transport.Server
	for i := range parts {
		entry, srvs := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, entry)
		servers = append(servers, srvs)
	}
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second, AllowPartial: true},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	svc, err := NewQueryService(cluster, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	servers[1][0].Close() // site1 is gone, no replica

	for _, q := range []string{
		"SELECT SourceAS, count(*) AS n FROM flow GROUP BY SourceAS",
		"SELECT SourceAS, DestAS, count(*) AS n FROM flow CUBE BY SourceAS, DestAS",
	} {
		for name, run := range map[string]func() (*Relation, error){
			"SQL":   func() (*Relation, error) { return cluster.SQL(q, AllOptimizations) },
			"serve": func() (*Relation, error) { return svc.Query(context.Background(), q) },
		} {
			rel, err := run()
			if err == nil {
				t.Errorf("%s %q: a partial execution answered\n%s", name, q, rel)
			} else if !strings.Contains(err.Error(), "lost sites site1") {
				t.Errorf("%s %q: error %q does not name site1", name, q, err)
			}
		}
	}
	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil || !res.Stats.Partial() {
		t.Fatalf("GMDJ query under AllowPartial: %v, partial %v", err, err == nil && res.Stats.Partial())
	}
}

// TestConnectWithErrors: malformed replica entries and unreachable strict
// sites fail at connect time.
func TestConnectWithErrors(t *testing.T) {
	if _, err := ConnectWith(ConnectConfig{Sites: []string{"127.0.0.1:1| "}}); err == nil {
		t.Error("empty replica address accepted")
	}
	if _, err := ConnectWith(ConnectConfig{Sites: nil}); err == nil {
		t.Error("empty site list accepted")
	}
	// Port 1 is refused immediately: strict connect must fail fast.
	_, err := ConnectWith(ConnectConfig{
		Sites:      []string{"127.0.0.1:1"},
		Resilience: Resilience{Attempts: 1, Backoff: time.Millisecond},
	})
	if err == nil {
		t.Error("unreachable strict site accepted at connect time")
	}
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestConnectWithHedgedDeadPrimary: hedging does not switch failover off.
// Every site is "dead|live" with Hedge on: the cluster connects, Status
// and the query service's readiness check see every site, and a query
// answers from the live replicas with the centralized result.
func TestConnectWithHedgedDeadPrimary(t *testing.T) {
	parts, whole := flowParts(2)
	var sites []string
	for i := range parts {
		live, _ := startFlowSite(t, fmt.Sprintf("site%d", i), parts[i], 1)
		sites = append(sites, deadAddr(t)+"|"+live)
	}
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second},
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond, Hedge: true},
	})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer cluster.Close()
	for _, st := range cluster.Status("flow") {
		if !st.Reachable {
			t.Errorf("status: %s", st)
		}
	}
	svc, err := NewQueryService(cluster, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if ok, why := svc.CheckReady(); !ok {
		t.Errorf("not ready: %s", why)
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	assertSameResult(t, "hedged dead primary", res.Relation, want)
}

// TestPlacementReachesEveryReplica: every site is "a|b" over two engines
// of its own. Load and Generate reach both replicas, so after the primary
// servers stop the query still equals the centralized answer, and both
// replicas generated the same partition.
func TestPlacementReachesEveryReplica(t *testing.T) {
	parts, whole := flowParts(2)
	var sites []string
	var primaries []*transport.Server
	var engines [][2]*site.Engine
	for i := range parts {
		var addrs [2]string
		var pair [2]*site.Engine
		for r := range pair {
			pair[r] = site.NewEngine(fmt.Sprintf("site%d", i))
			srv := transport.NewServer(pair[r])
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[r] = addr
			if r == 0 {
				primaries = append(primaries, srv)
			}
		}
		sites = append(sites, addrs[0]+"|"+addrs[1])
		engines = append(engines, pair)
	}
	cluster, err := ConnectWith(ConnectConfig{
		Sites:      sites,
		Settings:   Settings{CallTimeout: 10 * time.Second},
		Resilience: Resilience{Attempts: 2, Backoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Load("flow", parts); err != nil {
		t.Fatal(err)
	}
	counts, err := cluster.Generate("tpcr", "tpcr", tpcr.GenParams(tpcr.Config{Rows: 200, Customers: 10, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for i, pair := range engines {
		for r, eng := range pair {
			info := eng.Handle(context.Background(), &transport.Request{Op: transport.OpRelInfo, Rel: "tpcr"})
			if info.Error() != nil || info.RowCount != counts[i] {
				t.Errorf("site%d replica %d: generated %d rows (%v), want %d", i, r, info.RowCount, info.Error(), counts[i])
			}
		}
	}

	for _, srv := range primaries {
		srv.Close()
	}
	want, err := gmdj.EvalQuery(whole, example1())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Query(example1(), "flow", NoOptimizations)
	if err != nil {
		t.Fatalf("query after the primaries stopped: %v", err)
	}
	assertSameResult(t, "after failover", res.Relation, want)
}

// countingListener counts the connections its server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestDeployedClientCloseIsFinal: every client stack the system deploys —
// Connect's, a replica entry's failing over or hedged, NewReplicaTCP's,
// and a site whose replica is armed with a fault schedule — refuses a call
// after Close with ErrClosed and dials nothing for it: no connection
// reaches either replica's listener, and the armed replica's schedule
// sees no call.
func TestDeployedClientCloseIsFinal(t *testing.T) {
	eng := site.NewEngine("site0")
	var listeners [2]*countingListener
	var addrs [2]string
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = &countingListener{Listener: l}
		srv := transport.NewServer(eng)
		addrs[i] = srv.Serve(listeners[i])
		t.Cleanup(func() { srv.Close() })
	}
	// accepted returns each listener's accepted connections but its
	// probes: a probe is answered only once every connection dialed
	// before it was accepted.
	var probes int64
	accepted := func() [2]int64 {
		probes++
		var n [2]int64
		for i, addr := range addrs {
			probe, err := transport.DialTCP("probe", addr, CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Call(context.Background(), &transport.Request{Op: transport.OpPing}); err != nil {
				t.Fatal(err)
			}
			probe.Close()
			n[i] = listeners[i].accepted.Load() - probes
		}
		return n
	}
	connect := func(cfg ConnectConfig) func(*testing.T) transport.Client {
		return func(t *testing.T) transport.Client {
			c, err := ConnectWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c.clients[0]
		}
	}
	replicas := addrs[0] + "|" + addrs[1]
	armed := transport.NewChaos()
	armed.InjectAt(transport.OpPing, 2, transport.Fault{DropAfter: true})
	for _, tc := range []struct {
		name  string
		build func(*testing.T) transport.Client
	}{
		{"flat", connect(ConnectConfig{Sites: []string{addrs[0]}})},
		{"replicas", connect(ConnectConfig{Sites: []string{replicas}})},
		{"hedged", connect(ConnectConfig{Sites: []string{replicas}, Resilience: Resilience{Hedge: true}})},
		{"NewReplicaTCP", func(*testing.T) transport.Client {
			return transport.NewReplicaTCP("site0", addrs[:1], CostModel{}, 3, 100*time.Millisecond)
		}},
		{"chaos", func(t *testing.T) transport.Client {
			return siteClient(t, transport.SiteSpec{ID: "site0",
				Replicas:   []transport.Replica{{Addr: addrs[0], Chaos: armed}, {Addr: addrs[1]}},
				Resilience: Resilience{Attempts: 2}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := tc.build(t)
			ping := &transport.Request{Op: transport.OpPing}
			if _, err := cl.Call(context.Background(), ping); err != nil {
				t.Fatal(err)
			}
			cl.Close()
			before := accepted()
			if _, err := cl.Call(context.Background(), ping); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("a call after Close: %v, want ErrClosed", err)
			}
			if after := accepted(); after != before {
				t.Errorf("a call after Close dialed: accepted connections %v, then %v", before, after)
			}
		})
	}
	if got := armed.Calls(); got != 1 {
		t.Errorf("the armed replica's schedule saw %d calls, want 1 (none after Close)", got)
	}
}
