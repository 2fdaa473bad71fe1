// Package site implements a Skalla site: the local data warehouse adjacent
// to a data collection point. A site stores its horizontal partition of
// the detail relation(s) and evaluates GMDJ rounds against it, shipping
// only base-result structures and sub-aggregates back to the coordinator —
// never detail tuples.
//
// The original system used the Daytona DBMS as the local warehouse; here
// the local evaluator is the gmdj package over in-memory relations, which
// exposes the same contract (local evaluation of GMDJ expressions and of
// base-values queries).
package site

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/gmdj"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/transport"
	"repro/internal/vec"
)

// Generator synthesizes one site's partition of a dataset; generators are
// registered by kind (e.g. "tpcr", "ipflow") so sites can build their data
// locally instead of having it shipped.
type Generator func(spec *transport.GenSpec) (*relation.Relation, error)

var (
	genMu sync.RWMutex
	//lint:guarded-by genMu
	generators = map[string]Generator{}
)

// RegisterGenerator makes a dataset generator available to all engines
// under the given kind. It panics on duplicate registration, mirroring
// database/sql driver registration.
func RegisterGenerator(kind string, g Generator) {
	genMu.Lock()
	defer genMu.Unlock()
	if _, dup := generators[kind]; dup {
		panic(fmt.Sprintf("site: generator %q registered twice", kind))
	}
	generators[kind] = g
}

func lookupGenerator(kind string) (Generator, bool) {
	genMu.RLock()
	defer genMu.RUnlock()
	g, ok := generators[kind]
	return g, ok
}

// Limits bounds what a single request may produce. Zero fields are
// unlimited. A request whose result exceeds a limit is refused with an
// error wrapping transport.ErrOverloaded (wire code CodeOverloaded), so
// retrying wrappers fail over instead of re-asking for the same
// oversized answer. The refusal is a verdict on that one request, not on
// the site's load: no client layer narrows how many other requests may be
// in flight to the site because of it.
type Limits struct {
	// MaxResultRows caps the number of rows in one response relation.
	MaxResultRows int
	// MaxResultBytes caps the approximate payload size of one response
	// relation (cheap pre-encode estimate, not exact wire bytes).
	MaxResultBytes int64
}

// Engine is one site's local warehouse. It implements transport.Handler.
type Engine struct {
	id string

	mu sync.RWMutex
	//lint:guarded-by mu
	rels map[string]*relation.Relation
	//lint:guarded-by mu
	obs *obs.Obs
	//lint:guarded-by mu
	limits Limits
	// batches caches the columnar form of loaded relations, keyed by
	// lowercase name and validated by relation pointer identity (Load
	// replaces the pointer, invalidating the entry on next access). A
	// relation that has none — a value strays from its column's declared
	// kind — caches the refusal instead, so it is not re-converted per
	// round.
	//lint:guarded-by mu
	batches map[string]*batchEntry
	// chains hold the kernels' working memory: an evaluation takes one
	// *gmdj.Chain for its whole run and puts it back for the next.
	chains sync.Pool
}

// batchEntry is one cached columnar conversion, or the reason there is none.
type batchEntry struct {
	rel   *relation.Relation // the exact relation the batch was built from
	batch *vec.Batch
	err   error
}

// NewEngine returns an empty site engine.
func NewEngine(id string) *Engine {
	return &Engine{
		id:      id,
		rels:    map[string]*relation.Relation{},
		batches: map[string]*batchEntry{},
		chains:  sync.Pool{New: func() any { return new(gmdj.Chain) }},
	}
}

// detailBatch returns the cached columnar form of the named relation,
// converting on first use (Load stays cheap). Sites evaluate on batches
// only, so a relation whose values violate its declared column kinds is
// refused — by every evaluation that needs it, with the same error —
// until a well-typed Load replaces it.
func (e *Engine) detailBatch(name string, r *relation.Relation) (*vec.Batch, error) {
	key := strings.ToLower(name)
	e.mu.RLock()
	ent := e.batches[key]
	e.mu.RUnlock()
	if ent == nil || ent.rel != r {
		b, err := vec.FromRelation(r)
		if err != nil {
			err = fmt.Errorf("site %s: relation %s: %w", e.id, name, err)
		}
		ent = &batchEntry{rel: r, batch: b, err: err}
		e.mu.Lock()
		e.batches[key] = ent
		e.mu.Unlock()
	}
	return ent.batch, ent.err
}

// SetLimits installs per-request resource limits (zero fields disable).
func (e *Engine) SetLimits(l Limits) {
	e.mu.Lock()
	e.limits = l
	e.mu.Unlock()
}

func (e *Engine) getLimits() Limits {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.limits
}

// ID returns the site identifier.
func (e *Engine) ID() string { return e.id }

// SetObs publishes the engine's activity into o: per-op request counters
// ("site.op.<op>"), rounds served ("site.rounds_served"), base groups
// received and sub-aggregate groups returned ("site.groups_in",
// "site.groups_out"), a per-request compute-time histogram
// ("site.compute_ns"), and one tracer span per handled request on the
// site's own track.
func (e *Engine) SetObs(o *obs.Obs) {
	e.mu.Lock()
	e.obs = o
	e.mu.Unlock()
}

func (e *Engine) getObs() *obs.Obs {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.obs
}

// Load stores a relation under the given name, replacing any previous one
// (and dropping any cached columnar form of the replaced relation).
func (e *Engine) Load(name string, r *relation.Relation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	e.rels[key] = r
	delete(e.batches, key)
}

// Relation returns the stored relation with the given name.
func (e *Engine) Relation(name string) (*relation.Relation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, ok := e.rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("site %s: no relation %q", e.id, name)
	}
	return r, nil
}

// Handle implements transport.Handler. Errors travel in Response.Err so
// they cross the wire. A cancelled context short-circuits before (and,
// for multi-round evaluation, between) local evaluation steps: a leaf
// engine cannot interrupt a single in-flight gmdj evaluation, but it
// stops starting new work for a caller that has already hung up.
func (e *Engine) Handle(ctx context.Context, req *transport.Request) *transport.Response {
	o := e.getObs()
	o.Count("site.op."+req.Op.String(), 1)
	ctx, span := o.StartSpanTrack(ctx, req.Op.String(), obs.SiteTrack(e.id))
	defer span.End()

	// A QueryID-tagged request gets a per-request execution profile
	// piggy-backed on its response; untagged requests take none (and pay
	// for none — the response stays wire-identical).
	var prof *transport.SiteProfile
	var profStart time.Time
	if req.QueryID != "" {
		prof = &transport.SiteProfile{}
		profStart = time.Now()
	}

	resp, err := e.handle(ctx, req, prof)
	if err != nil {
		o.Count("site.errors", 1)
		if errors.Is(err, transport.ErrOverloaded) {
			o.Count("site.overloads", 1)
			o.Event(obs.EventOverload, e.id, "request shed by resource limit",
				map[string]string{"op": req.Op.String(), "error": err.Error()})
		}
		span.SetArg("error", err.Error())
		resp := &transport.Response{Err: fmt.Sprintf("%s: %v", req.Op, err), Code: transport.ErrCode(err)}
		if prof != nil {
			prof.Outcome = transport.ErrOutcome(err)
			prof.WallNs = time.Since(profStart).Nanoseconds()
			resp.Profile = prof
			e.recordProfile(req, prof)
		}
		return resp
	}
	if resp.ComputeNs > 0 {
		o.Observe("site.compute_ns", resp.ComputeNs)
	}
	if prof != nil {
		prof.Outcome = transport.OutcomeOK
		prof.WallNs = time.Since(profStart).Nanoseconds()
		resp.Profile = prof
		e.recordProfile(req, prof)
	}
	return resp
}

// recordProfile publishes one tagged request's profile into the obs
// profile ring (the site daemon's /profiles endpoint) and counters: the
// SiteProfile under an envelope naming the request. Only wall_ns varies
// between identical runs.
func (e *Engine) recordProfile(req *transport.Request, p *transport.SiteProfile) {
	o := e.getObs()
	if o == nil {
		return
	}
	o.Count("site.profiled_requests", 1)
	b, err := json.MarshalIndent(struct {
		QueryID string `json:"query_id"`
		Site    string `json:"site"`
		Op      string `json:"op"`
		Round   int    `json:"round"`
		*transport.SiteProfile
	}{req.QueryID, e.id, req.Op.String(), req.Round, p}, "", "  ")
	if err != nil {
		return
	}
	o.AddProfile(b)
}

// checkLimits enforces the per-request result caps on an outgoing
// relation.
func (e *Engine) checkLimits(out *relation.Relation) error {
	l := e.getLimits()
	if l.MaxResultRows > 0 && out.Len() > l.MaxResultRows {
		return fmt.Errorf("site %s: result of %d rows exceeds max-result-rows %d: %w",
			e.id, out.Len(), l.MaxResultRows, transport.ErrOverloaded)
	}
	if l.MaxResultBytes > 0 {
		if n := approxRelBytes(out); n > l.MaxResultBytes {
			return fmt.Errorf("site %s: result of ~%d bytes exceeds max-result-bytes %d: %w",
				e.id, n, l.MaxResultBytes, transport.ErrOverloaded)
		}
	}
	return nil
}

// approxRelBytes estimates a relation's payload size without encoding it:
// eight bytes per numeric value, string lengths as-is, plus a small
// per-row overhead. Deliberately cheap — the limit protects the site from
// shipping runaway results, not from being off by a framing constant.
func approxRelBytes(r *relation.Relation) int64 {
	var n int64
	for _, row := range r.Rows {
		n += 8 // per-row overhead
		for _, v := range row {
			n += 8 + int64(len(v.S))
		}
	}
	return n
}

func (e *Engine) handle(ctx context.Context, req *transport.Request, prof *transport.SiteProfile) (*transport.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch req.Op {
	case transport.OpPing:
		return &transport.Response{}, nil

	case transport.OpLoad:
		if req.Data == nil || req.Data.Schema == nil {
			return nil, fmt.Errorf("no relation payload")
		}
		if req.Rel == "" {
			return nil, fmt.Errorf("no relation name")
		}
		e.Load(req.Rel, req.Data)
		return &transport.Response{RowCount: req.Data.Len()}, nil

	case transport.OpGenerate:
		if req.Gen == nil {
			return nil, fmt.Errorf("no generator spec")
		}
		g, ok := lookupGenerator(req.Gen.Kind)
		if !ok {
			return nil, fmt.Errorf("unknown generator %q", req.Gen.Kind)
		}
		start := time.Now()
		r, err := g(req.Gen)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", req.Gen.Kind, err)
		}
		name := req.Gen.Rel
		if name == "" {
			name = req.Gen.Kind
		}
		e.Load(name, r)
		return &transport.Response{RowCount: r.Len(), ComputeNs: time.Since(start).Nanoseconds()}, nil

	case transport.OpDrop:
		e.mu.Lock()
		defer e.mu.Unlock()
		delete(e.rels, strings.ToLower(req.Rel))
		delete(e.batches, strings.ToLower(req.Rel))
		return &transport.Response{}, nil

	case transport.OpRelInfo:
		r, err := e.Relation(req.Rel)
		if err != nil {
			return nil, err
		}
		return &transport.Response{
			RowCount: r.Len(),
			Rel:      &relation.Relation{Schema: r.Schema},
		}, nil

	case transport.OpEvalBase:
		return e.evalBase(req, prof)

	case transport.OpEvalRounds:
		return e.evalRounds(ctx, req, prof)

	default:
		return nil, fmt.Errorf("unknown op %d", req.Op)
	}
}

// evalBase computes the base-values query over the local detail relation.
func (e *Engine) evalBase(req *transport.Request, prof *transport.SiteProfile) (*transport.Response, error) {
	detail, err := e.Relation(req.Detail)
	if err != nil {
		return nil, err
	}
	def, err := baseDef(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	chain := e.chains.Get().(*gmdj.Chain)
	defer e.chains.Put(chain)
	b, err := e.baseValues(chain, req.Detail, detail, def)
	if err != nil {
		return nil, err
	}
	if err := e.checkLimits(b); err != nil {
		return nil, err
	}
	if prof != nil {
		prof.RowsOut = b.Len()
		prof.BytesOutApprox = approxRelBytes(b)
	}
	return &transport.Response{Rel: b, ComputeNs: time.Since(start).Nanoseconds()}, nil
}

// baseValues computes the base-values query B_0 over the named detail
// relation's cached columnar batch, on chain's buffers.
func (e *Engine) baseValues(chain *gmdj.Chain, name string, detail *relation.Relation, def gmdj.BaseDef) (*relation.Relation, error) {
	batch, err := e.detailBatch(name, detail)
	if err != nil {
		return nil, err
	}
	return chain.EvalBaseBatch(batch, def)
}

func baseDef(req *transport.Request) (gmdj.BaseDef, error) {
	def := gmdj.BaseDef{Cols: req.BaseCols}
	if req.BaseWhere != "" {
		w, err := expr.Parse(req.BaseWhere)
		if err != nil {
			return def, fmt.Errorf("base filter: %w", err)
		}
		def.Where = w
	}
	return def, nil
}

// evalRounds runs one or more GMDJ rounds locally. With req.Base set the
// shipped base-result fragment is used; with req.BaseCols set the base is
// computed locally first (Proposition 2 fusion). Multiple rounds evaluate
// as a local chain without intermediate synchronization (Theorem 5 /
// Corollary 1); later rounds see the finalized aggregates of earlier ones.
// A shipped base gets the states alone, in shipped order, with
// Response.Kept; a fused one the base echoed beside the states.
func (e *Engine) evalRounds(ctx context.Context, req *transport.Request, prof *transport.SiteProfile) (*transport.Response, error) {
	if len(req.Rounds) == 0 {
		return nil, fmt.Errorf("no rounds")
	}
	start := time.Now()
	shipped := req.ShipsBase()
	// One chain for the request: its fused base filter and locally chained
	// rounds share each kernel worker's buffers.
	chain := e.chains.Get().(*gmdj.Chain)
	defer e.chains.Put(chain)

	base := req.Base
	if len(req.BaseCols) > 0 {
		detail, err := e.Relation(firstDetail(req))
		if err != nil {
			return nil, err
		}
		def, err := baseDef(req)
		if err != nil {
			return nil, err
		}
		base, err = e.baseValues(chain, firstDetail(req), detail, def)
		if err != nil {
			return nil, fmt.Errorf("fused base: %w", err)
		}
	}
	if base == nil || base.Schema == nil {
		return nil, fmt.Errorf("no base relation (ship Base or set BaseCols)")
	}

	// Accumulated |RNG| counts across rounds (Proposition 1 over
	// θ_1 ∨ ... ∨ θ_m of the whole chain).
	var touchedTotals []int64
	anyTouched := false
	// finalCols names the columns the chain's operators finalized so far;
	// stateCols, for a states-only reply, the states the earlier ones
	// appended.
	var finalCols, stateCols []string

	o := e.getObs()
	workers := runtime.GOMAXPROCS(0)
	o.SetGauge("site.eval_workers", int64(workers))

	// Per-request kernel statistics for the query profiler: unlike the
	// global vec.* counters above, these scope to exactly this request.
	var vecStats *vec.Stats
	if prof != nil {
		vecStats = &vec.Stats{}
		prof.Rounds = len(req.Rounds)
		prof.Workers = workers
		prof.Engine = "vector"
		if req.Base != nil {
			prof.RowsIn = req.Base.Len()
			prof.BytesInApprox = approxRelBytes(req.Base)
		}
	}

	for ri, spec := range req.Rounds {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		md, err := parseRound(spec)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		detail, err := e.Relation(spec.Detail)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		batch, err := e.detailBatch(spec.Detail, detail)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		// The last operator over a shipped base echoes nothing and
		// finalizes nothing: no later operator reads its output, and the
		// coordinator already holds every base column. Earlier operators
		// still see base and finalized columns.
		statesOnly := shipped && ri == len(req.Rounds)-1
		h, err := chain.EvalSub(base, detail, md, gmdj.SubOpts{
			Finalize:    spec.Finalize && !statesOnly,
			Touched:     spec.Touched,
			StatesOnly:  statesOnly,
			Workers:     workers,
			Obs:         o,
			Stats:       vecStats,
			DetailBatch: batch,
		})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		if spec.Finalize && !statesOnly {
			for _, s := range md.Specs() {
				finalCols = append(finalCols, s.As)
			}
		}
		if spec.Touched {
			anyTouched = true
			h, touchedTotals, err = absorbTouched(h, touchedTotals)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", ri+1, err)
			}
		} else if touchedTotals != nil {
			// Keep alignment: rows per base tuple are stable across rounds.
			if len(touchedTotals) != h.Len() {
				return nil, fmt.Errorf("round %d: row count changed mid-chain", ri+1)
			}
		}
		if statesOnly && len(stateCols) > 0 {
			// Lead the reply with the earlier operators' states, its rows
			// carved from one backing of the full width.
			lead, idx, err := base.Schema.Project(stateCols)
			if err == nil {
				lead, err = lead.Concat(h.Schema.Cols...)
			}
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", ri+1, err)
			}
			rows := relation.MakeRows(h.Len(), lead.Len())
			for i, row := range h.Rows {
				for _, p := range idx {
					rows[i] = append(rows[i], base.Rows[i][p])
				}
				rows[i] = append(rows[i], row...)
			}
			h = &relation.Relation{Schema: lead, Rows: rows}
		}
		if shipped && !statesOnly {
			for _, s := range md.Specs() {
				for pi := range s.Prims() {
					stateCols = append(stateCols, s.SubColName(pi))
				}
			}
		}
		base = h
	}

	out := base
	// Strip locally-finalized columns before shipping: the coordinator
	// recomputes finals from the merged primitives.
	if len(finalCols) > 0 {
		var err error
		out, err = dropColumns(out, finalCols)
		if err != nil {
			return nil, err
		}
	}
	var kept []byte
	if anyTouched {
		out, kept = filterByTotals(out, touchedTotals)
	}
	if err := e.checkLimits(out); err != nil {
		return nil, err
	}
	o.Count("site.rounds_served", int64(len(req.Rounds)))
	if req.Base != nil {
		o.Count("site.groups_in", int64(req.Base.Len()))
	}
	o.Count("site.groups_out", int64(out.Len()))
	if prof != nil {
		prof.RowsOut = out.Len()
		prof.BytesOutApprox = approxRelBytes(out)
		prof.VecBatches = vecStats.Batches
		prof.VecRows = vecStats.Rows
		prof.VecFilterRows = vecStats.FilterRows
		prof.VecSelected = vecStats.Selected
	}
	resp := &transport.Response{Rel: out, ComputeNs: time.Since(start).Nanoseconds()}
	if shipped {
		resp.Kept = kept
	}
	return resp, nil
}

func firstDetail(req *transport.Request) string {
	if req.Detail != "" {
		return req.Detail
	}
	return req.Rounds[0].Detail
}

// parseRound converts the wire form of a round into an MD operator.
func parseRound(spec transport.RoundSpec) (gmdj.MD, error) {
	md := gmdj.MD{BaseAlias: spec.BaseAlias, DetailAlias: spec.DetailAlias}
	if len(spec.Aggs) != len(spec.Thetas) {
		return md, fmt.Errorf("%d aggregate lists vs %d conditions", len(spec.Aggs), len(spec.Thetas))
	}
	for i, thetaText := range spec.Thetas {
		theta, err := expr.Parse(thetaText)
		if err != nil {
			return md, fmt.Errorf("θ_%d: %w", i+1, err)
		}
		var specs []agg.Spec
		for _, at := range spec.Aggs[i] {
			s, err := agg.ParseSpec(at)
			if err != nil {
				return md, err
			}
			specs = append(specs, s)
		}
		md.Thetas = append(md.Thetas, theta)
		md.Aggs = append(md.Aggs, specs)
	}
	return md, nil
}

// absorbTouched strips the touched column — the last of h, where EvalSub
// appends it — in place, adding its counts into the running totals.
func absorbTouched(h *relation.Relation, totals []int64) (*relation.Relation, []int64, error) {
	ti := h.Schema.Len() - 1
	if totals == nil {
		totals = make([]int64, h.Len())
	}
	if ti < 0 || h.Schema.Cols[ti].Name != gmdj.TouchedCol || len(totals) != h.Len() {
		return nil, nil, fmt.Errorf("touched column missing or misaligned: %d totals for %s", len(totals), h.Schema)
	}
	schema, err := relation.NewSchema(h.Schema.Cols[:ti]...)
	if err != nil {
		return nil, nil, err
	}
	for i, row := range h.Rows {
		totals[i] += row[ti].I
		h.Rows[i] = row[:ti]
	}
	return &relation.Relation{Schema: schema, Rows: h.Rows}, totals, nil
}

// filterByTotals drops groups whose accumulated |RNG| count is zero — the
// site-side half of Proposition 1 — and returns the Response.Kept bitmap
// of the rows it kept (nil when it kept all). The count itself is a local
// detection mechanism and is not shipped.
func filterByTotals(h *relation.Relation, totals []int64) (*relation.Relation, []byte) {
	out := relation.New(h.Schema)
	kept := make([]byte, (h.Len()+7)/8)
	for i, row := range h.Rows {
		if totals[i] > 0 {
			out.Rows = append(out.Rows, row)
			kept[i/8] |= 1 << (i % 8)
		}
	}
	if out.Len() == h.Len() {
		return out, nil
	}
	return out, kept
}

// dropColumns projects away the named columns.
func dropColumns(r *relation.Relation, names []string) (*relation.Relation, error) {
	drop := make(map[string]struct{}, len(names))
	for _, n := range names {
		drop[strings.ToLower(n)] = struct{}{}
	}
	var keep []string
	for _, c := range r.Schema.Cols {
		if _, d := drop[strings.ToLower(c.Name)]; !d {
			keep = append(keep, c.Name)
		}
	}
	if len(keep) == r.Schema.Len() {
		return r, nil
	}
	return r.Project(keep)
}
