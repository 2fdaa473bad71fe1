package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/vec"
)

// probe is one layer measured alone, one caller at a time, on the
// request/response pair captured from the traced window.
type probe struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	NsPerOp   float64 `json:"ns_per_op"`
	BPerOp    float64 `json:"b_per_op"`
	AllocsPer float64 `json:"allocs_per_op"`
}

func (p probe) ms() float64 { return p.NsPerOp / 1e6 }

// measure runs f once to warm up, then repeatedly for about budget (at
// least three times), and reports time, bytes and allocations per call.
// Nothing else runs in the process meanwhile, so the MemStats deltas
// belong to f.
func measure(name string, budget time.Duration, f func() error) (probe, error) {
	if err := f(); err != nil {
		return probe{}, fmt.Errorf("probe %s: %w", name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		if err := f(); err != nil {
			return probe{}, fmt.Errorf("probe %s: %w", name, err)
		}
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return probe{
		Name: name, Ops: n,
		NsPerOp:   float64(el.Nanoseconds()) / float64(n),
		BPerOp:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		AllocsPer: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}, nil
}

// echoHandler answers every request with one fixed response.
type echoHandler struct{ resp *transport.Response }

func (h echoHandler) Handle(context.Context, *transport.Request) *transport.Response { return h.resp }

// Probe names. The first four replay the captured exchange; the last two
// measure the query front end.
const (
	probeEcho    = "transport.echo" // DialTCP ↔ NewServer returning the captured response: codec + socket alone
	probeHandle  = "site.handle"    // Engine.Handle on the captured request, no socket
	probeKernel  = "gmdj.kernel"    // gmdj.EvalBase/EvalSub with the request already parsed
	probeConvert = "vec.convert"    // vec.FromRelation + vec.ToRelation of the captured response
	probeParse   = "sql.parse"      // sql.Parse, mean over the serve statements
	probePlan    = "core.plan"      // Egil.BuildPlan with the schema in hand

	probeCount = 6 // probes run per workload
)

// runProbes measures each layer alone within about budget in total.
func runProbes(e *env, ex *exchange, budget time.Duration) ([]probe, []string, error) {
	if ex == nil {
		return nil, nil, fmt.Errorf("probes: the traced window captured no evalRounds exchange at site0")
	}
	each := budget / probeCount
	ctx := context.Background()
	var out []probe
	var notes []string
	add := func(name string, f func() error) error {
		p, err := measure(name, each, f)
		if err != nil {
			return err
		}
		out = append(out, p)
		return nil
	}

	srv := transport.NewServer(echoHandler{ex.resp})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer srv.Close()
	cl, err := transport.DialTCP("site0", addr, transport.CostModel{})
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	if err := add(probeEcho, func() error {
		_, err := cl.Call(ctx, ex.req)
		return err
	}); err != nil {
		return nil, nil, err
	}

	if err := add(probeHandle, func() error {
		return e.engines[0].Handle(ctx, ex.req).Error()
	}); err != nil {
		return nil, nil, err
	}

	kernel, err := kernelReplay(e, ex.req)
	if err != nil {
		return nil, nil, err
	}
	if err := add(probeKernel, kernel); err != nil {
		return nil, nil, err
	}

	if _, err := vec.FromRelation(ex.resp.Rel); err != nil {
		// Sub-aggregate states outside the typed columns have no columnar
		// form today; say so instead of timing the error path.
		notes = append(notes, "vec.convert not measured: "+err.Error())
		out = append(out, probe{Name: probeConvert})
	} else if err := add(probeConvert, func() error {
		b, err := vec.FromRelation(ex.resp.Rel)
		if err != nil {
			return err
		}
		_, err = vec.ToRelation(b)
		return err
	}); err != nil {
		return nil, nil, err
	}

	stmts := findSQL()
	if err := add(probeParse, func() error {
		for _, s := range stmts {
			if _, err := sql.Parse(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	last := &out[len(out)-1] // per statement, not per pass over the mix
	last.NsPerOp /= float64(len(stmts))
	last.BPerOp /= float64(len(stmts))
	last.AllocsPer /= float64(len(stmts))

	plan, err := planReplay(e)
	if err != nil {
		return nil, nil, err
	}
	if err := add(probePlan, plan); err != nil {
		return nil, nil, err
	}
	return out, notes, nil
}

// findSQL returns the statement mix of the serve workload: sql.parse is
// measured on it under every workload, as a property of the program.
func findSQL() []string {
	for _, w := range workloads {
		if len(w.sql) > 0 {
			return w.sql
		}
	}
	return nil
}

// kernelReplay returns a function evaluating the captured request's rounds
// straight through the gmdj package — what Engine.Handle does minus
// parsing the round specs, limit checks, touched-group filtering and
// column stripping. It runs with the engine's own parallelism (GOMAXPROCS
// workers) so that site.handle − gmdj.kernel is the site's non-kernel time.
func kernelReplay(e *env, req *transport.Request) (func() error, error) {
	part := e.parts[0]
	batch, err := vec.FromRelation(part)
	if err != nil {
		batch = nil // EvalSub falls back to rows, as the engine would
	}
	var baseDef *gmdj.BaseDef
	if len(req.BaseCols) > 0 {
		baseDef = &gmdj.BaseDef{Cols: req.BaseCols}
		if req.BaseWhere != "" {
			if baseDef.Where, err = expr.Parse(req.BaseWhere); err != nil {
				return nil, err
			}
		}
	}
	mds := make([]gmdj.MD, len(req.Rounds))
	for ri, spec := range req.Rounds {
		md := gmdj.MD{BaseAlias: spec.BaseAlias, DetailAlias: spec.DetailAlias}
		for i, text := range spec.Thetas {
			theta, err := expr.Parse(text)
			if err != nil {
				return nil, err
			}
			var specs []agg.Spec
			for _, at := range spec.Aggs[i] {
				s, err := agg.ParseSpec(at)
				if err != nil {
					return nil, err
				}
				specs = append(specs, s)
			}
			md.Thetas = append(md.Thetas, theta)
			md.Aggs = append(md.Aggs, specs)
		}
		mds[ri] = md
	}
	return func() error {
		base := req.Base
		if baseDef != nil {
			var err error
			if base, err = gmdj.EvalBase(part, *baseDef); err != nil {
				return err
			}
		}
		for ri, md := range mds {
			var err error
			base, err = gmdj.EvalSub(base, part, md, gmdj.SubOpts{
				Finalize: req.Rounds[ri].Finalize, Touched: req.Rounds[ri].Touched, DetailBatch: batch,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// planReplay returns a function planning the workload's query (for the
// serve workload, its GROUP BY CustName statement) with the detail schema
// already fetched.
func planReplay(e *env) (func() error, error) {
	schema := e.parts[0].Schema
	q, cat, opts := e.query, e.cat, e.w.opts
	if len(e.w.sql) > 0 {
		st, err := sql.Parse(e.w.sql[1])
		if err != nil {
			return nil, err
		}
		if q, err = st.Query(); err != nil {
			return nil, err
		}
		cat, opts = e.cluster.Catalog(), core.DefaultOptions
	}
	egil := core.Egil{Catalog: cat, Options: opts}
	return func() error {
		_, err := egil.BuildPlan(q, detail, schema)
		return err
	}, nil
}
