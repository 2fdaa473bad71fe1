package site

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/tpcr"
	"repro/internal/transport"
	"repro/internal/value"
)

// retyped is r with column col converted by conv to kind.
func retyped(tb testing.TB, r *relation.Relation, col string, kind value.Kind, conv func(value.V) value.V) *relation.Relation {
	tb.Helper()
	ci, err := r.Schema.MustLookup(col)
	if err != nil {
		tb.Fatal(err)
	}
	cols := append([]relation.Column(nil), r.Schema.Cols...)
	cols[ci].Kind = kind
	out := relation.New(relation.MustSchema(cols...))
	for _, row := range r.Rows {
		row = append(relation.Row(nil), row...)
		row[ci] = conv(row[ci])
		out.Rows = append(out.Rows, row)
	}
	return out
}

// quantityFloat is r with Quantity a FLOAT half a unit above its INT.
func quantityFloat(tb testing.TB, r *relation.Relation) *relation.Relation {
	return retyped(tb, r, "Quantity", value.KindFloat, func(v value.V) value.V { return value.NewFloat(float64(v.Int()) + 0.5) })
}

// freshReply is the reply to req of an engine that loaded r as tpcr and
// served nothing before.
func freshReply(r *relation.Relation, req *transport.Request) []byte {
	e := NewEngine("site0")
	e.Load("tpcr", r)
	return replyBytes(e.Handle(context.Background(), req))
}

// TestReloadRepreparesShape: a request answered, and prepared, before a
// Load that drops or retypes a column it reads answers after it exactly as
// an engine that only ever held the new relation — an error where the
// column is gone or no longer fits, other numbers where it changed kind —
// and, once the old relation is back, as one that held the old.
func TestReloadRepreparesShape(t *testing.T) {
	part := fusedPartition(t, 3000)
	dropped, err := part.Project(without(part.Schema.Names(), "Discount"))
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]*relation.Relation{
		"Discount dropped":    dropped,
		"Discount as STRING":  retyped(t, part, "Discount", value.KindString, func(v value.V) value.V { return value.NewString(v.String()) }),
		"Quantity as FLOAT":   quantityFloat(t, part),
		"ShipMode as INT":     retyped(t, part, "ShipMode", value.KindInt, func(v value.V) value.V { return value.NewInt(int64(len(v.S))) }),
		"CustGroup as STRING": retyped(t, part, "CustGroup", value.KindString, func(v value.V) value.V { return value.NewString(v.String()) }),
	}
	reqs := map[string]*transport.Request{
		"fused":    fusedRequest(""),
		"filtered": fusedRequest("F.Discount > 0.02 AND F.ShipMode <> 'AIR'"),
		"shipped":  chainOverBase(custBase(t, part, 40)),
		"base round": {Op: transport.OpEvalRounds, Detail: "tpcr", BaseCols: []string{"CustGroup"},
			BaseWhere: "F.Quantity > 45"},
	}
	changed, failed := 0, 0
	for vname, variant := range variants {
		for rname, req := range reqs {
			e := NewEngine("site0")
			e.Load("tpcr", part)
			before := freshReply(part, req)
			for i := 0; i < 2; i++ {
				if got := replyBytes(e.Handle(context.Background(), req)); !bytes.Equal(got, before) {
					t.Fatalf("%s before the load: the reply differs from a fresh engine's", rname)
				}
			}
			after := freshReply(variant, req)
			if !bytes.Equal(after, before) {
				changed++
			}
			if bytes.HasPrefix(after, []byte("evalRounds:")) {
				failed++
			}
			e.Load("tpcr", variant)
			if got := replyBytes(e.Handle(context.Background(), req)); !bytes.Equal(got, after) {
				t.Errorf("%s after a load with %s: %.120q, a fresh engine answers %.120q", rname, vname, got, after)
			}
			e.Load("tpcr", part)
			if got := replyBytes(e.Handle(context.Background(), req)); !bytes.Equal(got, before) {
				t.Errorf("%s after the old relation is back: the reply differs from a fresh engine's", rname)
			}
		}
	}
	if changed < len(variants) || failed == 0 {
		t.Fatalf("%d loads changed a prepared request's answer and %d made one fail: the loads read like no change", changed, failed)
	}
}

// without returns names without drop.
func without(names []string, drop string) []string {
	var out []string
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// TestPreparedShapesBounded: one shape past the bound empties the prepared
// shapes instead of growing them, and every answer, before and after, and
// to the shapes it dropped, is a fresh engine's.
func TestPreparedShapesBounded(t *testing.T) {
	part := fusedPartition(t, 2000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	o := obs.New()
	e.SetObs(o)
	shapes := o.Metrics.Gauge("site.prepared_shapes")
	req := func(i int) *transport.Request { return fusedRequest(fmt.Sprintf("F.Quantity + %d > 40", i)) }
	most := int64(0)
	for _, i := range append(seq(maxShapes+1), seq(3)...) {
		if got, want := replyBytes(e.Handle(context.Background(), req(i))), freshReply(part, req(i)); !bytes.Equal(got, want) {
			t.Fatalf("shape %d: the reply differs from a fresh engine's", i)
		}
		n := shapes.Value()
		if n > maxShapes {
			t.Fatalf("after shape %d: %d shapes prepared, the bound is %d", i, n, maxShapes)
		}
		most = max(most, n)
	}
	if most != maxShapes {
		t.Fatalf("at most %d shapes prepared, want the bound %d reached", most, maxShapes)
	}
	if hits := o.Metrics.CounterValue("site.prepare_hits"); hits != 0 {
		t.Errorf("%d requests found their shape prepared, but every shape was new or dropped", hits)
	}
}

// TestFailedRequestsKeepNoShape: requests of new shapes that fail — a base
// filter that does not parse, a θ naming no column — take no place among
// the prepared shapes, however many there are, and the chain a shape kept
// before them is still found.
func TestFailedRequestsKeepNoShape(t *testing.T) {
	part := fusedPartition(t, 2000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	o := obs.New()
	e.SetObs(o)
	handleOK(t, e, fusedRequest(""))
	handleOK(t, e, fusedRequest("")) // the shape keeps a chain from its second request on
	for i := range maxShapes + 1 {
		req := fusedRequest(fmt.Sprintf("F.Quantity > %d AND", i))
		if i%2 == 1 {
			req = fusedRequest("")
			req.Rounds[1].Thetas[0] = fmt.Sprintf("F.Nope%d = B.CustGroup", i)
		}
		if resp := e.Handle(context.Background(), req); resp.Err == "" {
			t.Fatalf("request %d answered, want it refused", i)
		}
	}
	if n := o.Metrics.Gauge("site.prepared_shapes").Value(); n != 1 {
		t.Fatalf("%d shapes prepared after %d failed requests of new shapes, want the 1 that succeeded", n, maxShapes+1)
	}
	handleOK(t, e, fusedRequest(""))
	if hits := o.Metrics.CounterValue("site.prepare_hits"); hits != 1 {
		t.Fatalf("site.prepare_hits = %d, want the first shape's chain found again", hits)
	}
}

// seq is 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestPooledRequestPinsNothing: once two requests over a shipped base are
// answered — the first's chain back among the spare ones, the second's kept
// by their shape — nothing the engine keeps holds a value of either: not
// their base rows, the base row their programs were bound to, the STRING a
// θ's per-base-row scalar computed, or the CASE lanes that boxed that
// STRING beside the detail's. The third request finds its chain kept.
func TestPooledRequestPinsNothing(t *testing.T) {
	part := fusedPartition(t, 6000)
	e := NewEngine("site0")
	e.Load("tpcr", part)
	o := obs.New()
	e.SetObs(o)
	names := custBase(t, part, 50)
	send := func() []weak.Pointer[byte] {
		base := relation.New(relation.MustSchema(
			relation.Column{Name: "CustName", Kind: value.KindString},
			relation.Column{Name: "Tag", Kind: value.KindString},
		))
		var held []weak.Pointer[byte]
		for i, row := range names.Rows {
			name, tag := strings.Clone(row[0].S), strings.Repeat("tag-", 5)+strconv.Itoa(i)
			base.MustAppend(value.NewString(name), value.NewString(tag))
			held = append(held, weak.Make(unsafe.StringData(name)), weak.Make(unsafe.StringData(tag)))
		}
		req := statesRequest(base, false, "count(*) AS n", "max(F.ShipMode) AS m")
		req.Rounds[0].Thetas[0] += " AND CASE WHEN F.Quantity > 25 THEN B.Tag ELSE F.ShipMode END <> F.ShipMode"
		if got := replyRel(t, handleOK(t, e, req)); got.Len() != 50 {
			t.Fatalf("%d reply rows, want 50", got.Len())
		}
		return held
	}
	held := append(send(), send()...)
	runtime.GC()
	for i, w := range held {
		if w.Value() != nil {
			t.Fatalf("the engine still holds request %d's %s %d", i/100+1, []string{"name", "tag"}[i%2], i%100/2)
		}
	}
	send()
	if hits := o.Metrics.CounterValue("site.prepare_hits"); hits != 1 {
		t.Fatalf("site.prepare_hits = %d, want the third request to find the second's chain", hits)
	}
}

// TestWarmRequestPreparesNothing: a warm engine answers a repeated
// BenchmarkHandleChained request — a fused base and two chained rounds
// over one site's share of the scan_lowcard data — by running its kernels
// alone: no allocation under expr.Parse, MD.Validate or vec.Compile, and
// few allocations in all, where a cold request makes them all. The engine
// is warm once the shape keeps a chain, from its second request on.
func TestWarmRequestPreparesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds hold without the race detector's instrumentation")
	}
	part, err := tpcr.GeneratePartition(
		tpcr.Config{Rows: 96000, Customers: 2000, LowCardGroups: 200, Seed: 1}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine("site0")
	e.Load("tpcr", part)
	req := fusedRequest("")
	preparing := []string{"repro/internal/expr.Parse", "repro/internal/gmdj.MD.Validate", "repro/internal/vec.Compile"}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsIn(preparing)
	handleOK(t, e, req)
	cold := allocsIn(preparing)
	handleOK(t, e, req)
	kept := allocsIn(preparing)
	for i := 0; i < 20; i++ {
		handleOK(t, e, req)
	}
	warm := allocsIn(preparing)
	for i := range preparing {
		if cold[i] == before[i] {
			t.Fatalf("the cold request allocated nothing under %s: the check sees nothing", preparing[i])
		}
		if n := warm[i] - kept[i]; n != 0 {
			t.Errorf("20 warm requests allocated %d objects under %s", n, preparing[i])
		}
	}
	const most = 90
	if allocs := testing.AllocsPerRun(50, func() { handleOK(t, e, req) }); allocs > most {
		t.Errorf("a warm request allocates %.0f objects, want at most %d", allocs, most)
	}
}

// allocsIn returns, for each function named, the objects allocated so far
// with it on the stack, as the memory profile has them after a collection.
func allocsIn(funcs []string) []int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+50)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	counts := make([]int64, len(funcs))
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		seen := make([]bool, len(funcs))
		for {
			f, more := frames.Next()
			for i, fn := range funcs {
				if f.Function == fn && !seen[i] {
					seen[i] = true
					counts[i] += r.AllocObjects
				}
			}
			if !more {
				break
			}
		}
	}
	return counts
}
