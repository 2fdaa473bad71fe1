package site

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// custBase is the CustName base the coordinator would ship a site holding
// part: its first n groups.
func custBase(tb testing.TB, part *relation.Relation, n int) *relation.Relation {
	tb.Helper()
	b, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: []string{"CustName"}})
	if err != nil {
		tb.Fatal(err)
	}
	if b.Len() < n {
		tb.Fatalf("partition has %d customers, want at least %d", b.Len(), n)
	}
	b.Rows = b.Rows[:n]
	return b
}

// chainOverBase is a locally chained pair of rounds over a shipped base: the
// second reads the average the first finalizes, and the reply leads with
// the first round's states.
func chainOverBase(base *relation.Relation) *transport.Request {
	const eq = "F.CustName = B.CustName"
	return &transport.Request{
		Op: transport.OpEvalRounds, Base: base,
		Rounds: []transport.RoundSpec{
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs:   [][]string{{"count(*) AS cnt1", "avg(F.Quantity) AS avg1"}},
				Thetas: []string{eq},
			},
			{
				Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Finalize: true,
				Aggs:   [][]string{{"count(*) AS cnt3"}},
				Thetas: []string{eq + " AND F.Quantity >= B.avg1"},
			},
		},
	}
}

// TestChainedStatesOnlyAllocsDoNotScaleWithBase: the states-only reply of a
// two-round chain over a shipped base is built in one backing, not one
// allocation per reply row.
func TestChainedStatesOnlyAllocsDoNotScaleWithBase(t *testing.T) {
	part := fusedPartition(t, 24000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	allocs := func(groups int) float64 {
		req := chainOverBase(custBase(t, part, groups))
		if got := replyRel(t, handleOK(t, e, req)); got.Len() != groups || got.Schema.Len() != 4 {
			t.Fatalf("%d groups: reply %s with %d rows", groups, got.Schema, got.Len())
		}
		return testing.AllocsPerRun(10, func() { handleOK(t, e, req) })
	}
	const few, many = 500, 1970
	small, large := allocs(few), allocs(many)
	if large-small > (many-few)/10 {
		t.Errorf("allocations scale with the shipped base: %.0f at %d groups, %.0f at %d", small, few, large, many)
	}
}

// replyBytes renders everything a reply says but its timing: the error and
// its code, the Kept bitmap and the relation's frame.
func replyBytes(resp *transport.Response) []byte {
	b := fmt.Appendf(nil, "%s|%d|%x|", resp.Err, resp.Code, resp.Kept)
	if f, err := resp.Frame(); err == nil {
		b = append(b, f.Bytes()...)
	}
	return b
}

// statesRequest is a one-round request over a shipped base that answers
// with the states of aggs, each over the detail rows of the base row's
// customer; touched drops the groups no detail row matched.
func statesRequest(base *relation.Relation, touched bool, aggs ...string) *transport.Request {
	return &transport.Request{
		Op: transport.OpEvalRounds, Base: base,
		Rounds: []transport.RoundSpec{{
			Detail: "tpcr", BaseAlias: "B", DetailAlias: "R", Touched: touched,
			Aggs: [][]string{aggs}, Thetas: []string{"F.CustName = B.CustName"},
		}},
	}
}

// strangerBase is n customers of all, every other one without a row in
// part, so that their groups' states stay empty there; the others stand at
// other indexes than in all.
func strangerBase(tb testing.TB, part, all *relation.Relation, n int) *relation.Relation {
	tb.Helper()
	local, err := gmdj.EvalBase(part, gmdj.BaseDef{Cols: []string{"CustName"}})
	if err != nil {
		tb.Fatal(err)
	}
	here := map[string]bool{}
	for _, row := range local.Rows {
		here[row[0].S] = true
	}
	var in, out []relation.Row
	for _, row := range all.Rows {
		if here[row[0].S] {
			in = append(in, row)
		} else {
			out = append(out, row)
		}
	}
	if len(in) < n/2 || len(out) < n-n/2 {
		tb.Fatalf("%d customers here and %d elsewhere, want %d of each", len(in), len(out), n/2)
	}
	b := &relation.Relation{Schema: all.Schema}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.Rows = append(b.Rows, out[i/2])
		} else {
			b.Rows = append(b.Rows, in[len(in)-1-i/2])
		}
	}
	return b
}

// column returns the values of the reply's column name.
func column(tb testing.TB, resp *transport.Response, name string) []value.V {
	tb.Helper()
	rel := replyRel(tb, resp)
	ci, err := rel.Schema.MustLookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]value.V, rel.Len())
	for i, row := range rel.Rows {
		vals[i] = row[ci]
	}
	return vals
}

// TestPooledChainsInvisible: an engine's evaluations draw their kernel
// buffers, slabs and match counts from a pool of chains, each prepared for
// one request shape, and no request can tell. A mix of fused, filtered,
// states-only, chained and failing requests, each sent many times to one
// engine in order and then from concurrent goroutines, gets byte for byte
// the replies each request gets from an engine that has served nothing
// before — also when the detail relation is reloaded between them with
// data in which Quantity is a FLOAT, not an INT, so that what a shape
// prepared over the old batch no longer fits. Each request leaves its
// chain's states dirty in its own way for the next: extrema over STRINGs
// and FLOATs with NULLs, sketches and sets, an INT sum that a FLOAT
// switches, a three-round chain before one-round requests, a 2 000-group
// base before a 50-group one, and rounds that fail after the first wrote
// its states. The shipped bases hold customers the site has no row of,
// whose states must read empty. Requests find their shape prepared.
func TestPooledChainsInvisible(t *testing.T) {
	gen := func(rows int) *relation.Relation {
		part, err := tpcr.GeneratePartition(
			tpcr.Config{Rows: rows, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	part, wide := gen(6000), gen(48000)
	engine := func() *Engine {
		e := NewEngine("site0")
		e.Load("tpcr", part)
		return e
	}
	statesOnly := chainOverBase(custBase(t, part, 700))
	statesOnly.Rounds = statesOnly.Rounds[:1]
	failing := fusedRequest("")
	failing.Rounds[1].Aggs[0] = append(failing.Rounds[1].Aggs[0], "sum(F.CustName) AS bad")
	all := custBase(t, wide, 2000)
	failingShipped := chainOverBase(all)
	failingShipped.Rounds[1].Aggs[0] = append(failingShipped.Rounds[1].Aggs[0], "max(F.Quantity + F.ShipMode) AS bad")
	sketches := []string{"countd(F.ShipMode) AS d", "sum(F.Quantity) AS q", "countdx(F.Quantity) AS dx"}
	mix := []*transport.Request{
		fusedRequest(""),
		chainOverBase(custBase(t, part, 1200)),
		fusedRequest("F.Discount > 0.02 AND F.Quantity < 30"),
		statesOnly,
		failing,
		{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustName"}, BaseWhere: "F.Quantity > 45"},
		chainOverBase(custBase(t, part, 40)),
		fusedRequest("F.Discount > 0.05"),
		statesRequest(all, false, "min(CASE WHEN F.Quantity > 25 THEN F.ShipMode END) AS smin",
			"max(CASE WHEN F.Discount > 0.05 THEN F.ExtendedPrice END) AS fmax", "max(F.ShipMode) AS smax", "min(F.Discount) AS dmin"),
		statesRequest(all, false, sketches...),
		statesRequest(all, false, "sum(CASE WHEN F.Quantity > 40 THEN F.Discount ELSE F.Quantity END) AS mixed", "sum(F.Quantity) AS q"),
		statesRequest(all, true, sketches...),
		statesRequest(strangerBase(t, part, all, 50), true, sketches...),
		{Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustName"}, Rounds: chainRounds("CustName", 3, 0, 2)},
		statesRequest(strangerBase(t, part, all, 50), false, "min(F.ShipMode) AS smin", "countd(F.Quantity) AS d"),
		failingShipped,
		statesRequest(strangerBase(t, part, all, 50), false, "sum(F.Quantity) AS q", "max(F.ShipMode) AS smax"),
	}
	want := make([][]byte, len(mix))
	fresh := make([]*transport.Response, len(mix))
	for i, req := range mix {
		fresh[i] = engine().Handle(context.Background(), req)
		want[i] = replyBytes(fresh[i])
	}
	if !bytes.Contains(want[4], []byte("sum over non-numeric")) {
		t.Fatalf("the failing request did not fail in the kernel: %.80q", want[4])
	}
	for _, i := range []int{4, 15} {
		if !bytes.Contains(want[i], []byte("round 2:")) {
			t.Fatalf("request %d did not fail in its second round: %.80q", i, want[i])
		}
	}
	// The states the mix relies on: empty groups among full ones, and a
	// sum that holds INTs in some groups and FLOATs in others.
	for _, c := range []struct {
		i     int
		col   string
		kinds []value.Kind
	}{
		{8, "smin__p0", []value.Kind{value.KindNull, value.KindString}},
		{8, "fmax__p0", []value.Kind{value.KindNull, value.KindFloat}},
		{9, "d__p0", []value.Kind{value.KindNull, value.KindString}},
		{10, "mixed__p0", []value.Kind{value.KindNull, value.KindInt, value.KindFloat}},
		{14, "smin__p0", []value.Kind{value.KindNull, value.KindString}},
	} {
		for _, k := range c.kinds {
			if !slices.ContainsFunc(column(t, fresh[c.i], c.col), func(v value.V) bool { return v.K == k }) {
				t.Fatalf("request %d: no %s state in column %s", c.i, k, c.col)
			}
		}
	}
	for _, i := range []int{11, 12} {
		if fresh[i].Kept == nil {
			t.Fatalf("request %d kept every group: its match counts decide nothing", i)
		}
	}

	other := quantityFloat(t, part)
	wantOther := make([][]byte, len(mix))
	changed := 0
	for i, req := range mix {
		if wantOther[i] = freshReply(other, req); !bytes.Equal(wantOther[i], want[i]) {
			changed++
		}
	}
	if changed < len(mix)/2 {
		t.Fatalf("FLOAT quantities change %d of %d replies", changed, len(mix))
	}
	wants := map[*relation.Relation][][]byte{part: want, other: wantOther}

	e := engine()
	o := obs.New()
	e.SetObs(o)
	check := func(report func(string, ...any), pass, i int, data *relation.Relation) {
		if got := replyBytes(e.Handle(context.Background(), mix[i])); !bytes.Equal(got, wants[data][i]) {
			report("pass %d, request %d: the reply differs from a fresh engine's (%d vs %d bytes)", pass, i, len(got), len(wants[data][i]))
		}
	}
	data := part
	reload := func() {
		if data == part {
			data = other
		} else {
			data = part
		}
		e.Load("tpcr", data)
	}
	// In order: every request twice over each relation, the relation
	// replaced halfway through a pass.
	for k := 0; k < 5*len(mix); k++ {
		if k%(2*len(mix)) == 3*len(mix)/2 {
			reload()
		}
		check(t.Fatalf, k/len(mix), k%len(mix), data)
	}
	// Concurrently while the relation is replaced: a reply is the one over
	// the relation before a load or over the one after it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(mix); k++ {
				i := (g*3 + k) % len(mix)
				if got := replyBytes(e.Handle(context.Background(), mix[i])); !bytes.Equal(got, want[i]) && !bytes.Equal(got, wantOther[i]) {
					t.Errorf("goroutine %d, request %d: the reply is neither relation's", g, i)
				}
			}
		}(g)
	}
	for k := 0; k < 6; k++ {
		reload()
	}
	wg.Wait()
	// Concurrently over one relation.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(mix); k++ {
				check(t.Errorf, g, (g*3+k)%len(mix), data)
			}
		}(g)
	}
	wg.Wait()
	if hits := o.Metrics.CounterValue("site.prepare_hits"); hits == 0 {
		t.Error("no request found its shape prepared")
	}
}

// TestShippedRequestBytesDoNotScaleWithBase: on a warmed engine a
// states-only request over a shipped base allocates, per shipped group,
// no more than its reply's frame grows by: the kernel's states and match
// counts live in the engine's pooled chains, reset between requests, and
// the only memory a request takes per group is the frame it sends (and
// the Kept bitmap's byte per eight groups).
func TestShippedRequestBytesDoNotScaleWithBase(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops chains at random")
	}
	e := fusedEngine(t, 24000)
	all := custBase(t, fusedPartition(t, 48000), 2000)
	measure := func(groups int) (bytes float64, frame int) {
		req := statesRequest(&relation.Relation{Schema: all.Schema, Rows: all.Rows[:groups]}, true,
			"count(*) AS cnt1", "avg(F.Quantity) AS avg1", "min(F.ShipDate) AS lo1", "max(F.Discount) AS hi1")
		f, err := handleOK(t, e, req).Frame()
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerRequest(t, e, req, 200), len(f.Bytes())
	}
	const few, many = 500, 2000
	b0, f0 := measure(few)
	b1, f1 := measure(many)
	t.Logf("%d groups: %.0f B a request, frame %d B; %d groups: %.0f B, frame %d B", few, b0, f0, many, b1, f1)
	if limit := float64(f1-f0+(many-few)/8) + 2<<10; b1-b0 > limit {
		t.Errorf("%d more shipped groups allocate %.0f B more a request, want at most %.0f: the frame grows by %d B",
			many-few, b1-b0, limit, f1-f0)
	}
}
