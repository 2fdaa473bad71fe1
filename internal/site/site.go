// Package site implements a Skalla site: the local data warehouse adjacent
// to a data collection point. A site stores its horizontal partition of
// the detail relation(s) and evaluates GMDJ rounds against it, shipping
// only base-result structures and sub-aggregates back to the coordinator —
// never detail tuples.
//
// The original system used the Daytona DBMS as the local warehouse; here
// the local evaluator is the gmdj package over one in-memory columnar batch
// per relation, which exposes the same contract (local evaluation of GMDJ
// expressions and of base-values queries).
package site

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// MaxResultBytes caps the length of one response relation's frame,
	// exactly: the bytes its Rel field carries on the wire.
	MaxResultBytes int64
}

// Engine is one site's local warehouse. It implements transport.Handler.
type Engine struct {
	id string

	mu sync.RWMutex
	// rels maps lowercase names to what the site stores. Load and drop
	// install a new map, so a request reads one version throughout.
	//lint:guarded-by mu
	rels map[string]stored
	//lint:guarded-by mu
	obs *obs.Obs
	//lint:guarded-by mu
	limits Limits
	// shapes holds what is prepared of each request shape (shapeOf) over
	// rels; a load replaces it with rels.
	//lint:guarded-by mu
	shapes map[string]*shape
	// spare pools the chains no shape keeps, for any request to prepare in.
	spare sync.Pool
}

// maxShapes bounds the shapes an engine keeps: one more empties the map.
// A kept chain holds states and finals for at most maxKeptGroups base rows
// (gmdj.Chain.Shrink), so what the shapes hold does not grow with the data.
const maxShapes, maxKeptGroups = 64, 4096

// stored is what the site keeps of a loaded relation: its batch, or the
// reason it has none.
type stored struct {
	batch *vec.Batch
	err   error
}

// NewEngine returns an empty site engine.
func NewEngine(id string) *Engine {
	return &Engine{id: id, rels: map[string]stored{}, shapes: map[string]*shape{},
		spare: sync.Pool{New: func() any { return new(gmdj.Chain) }}}
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
// "site.groups_out"), evaluations that found their shape prepared and
// those that prepared it ("site.prepare_hits", "site.prepare_misses"), the
// shapes kept prepared ("site.prepared_shapes"), a per-request
// compute-time histogram ("site.compute_ns"), and one tracer span per
// handled request on the site's own track.
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

// Load stores a relation under the given name, replacing any previous one.
// It keeps only r's batch; a relation that has none (a value strays from
// its column's kind) is stored as that refusal, which every request naming
// it returns until a well-typed Load replaces it.
func (e *Engine) Load(name string, r *relation.Relation) { _ = e.load(name, r) }

// load is Load returning the refusal it stored, if any.
func (e *Engine) load(name string, r *relation.Relation) error {
	s := e.convert(name, r)
	e.mu.Lock()
	defer e.mu.Unlock()
	rels := maps.Clone(e.rels)
	rels[strings.ToLower(name)] = s
	e.installLocked(rels)
	return s.err
}

// installLocked makes rels the stored relations, with no shape prepared over
// them. The caller holds e.mu.
func (e *Engine) installLocked(rels map[string]stored) {
	e.rels, e.shapes = rels, map[string]*shape{}
	e.obs.SetGauge("site.prepared_shapes", 0)
}

// addShape makes sh shapes' entry key unless it has one; a shape past
// maxShapes first empties shapes.
func (e *Engine) addShape(shapes map[string]*shape, key string, sh *shape) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if shapes[key] == nil {
		if len(shapes) >= maxShapes {
			clear(shapes)
		}
		shapes[key] = sh
		e.obs.SetGauge("site.prepared_shapes", int64(len(e.shapes)))
	}
}

// convert builds what the site keeps of r under name.
func (e *Engine) convert(name string, r *relation.Relation) stored {
	b, err := vec.FromRelation(r)
	if err != nil {
		err = fmt.Errorf("site %s: relation %s: %w", e.id, name, err)
	}
	return stored{b, err}
}

// relations returns the current version of the stored relations.
func (e *Engine) relations() map[string]stored {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rels
}

// batch returns rels' batch under name, or the refusal stored for it.
func (e *Engine) batch(rels map[string]stored, name string) (*vec.Batch, error) {
	s, ok := rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("site %s: no relation %q", e.id, name)
	}
	return s.batch, s.err
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

// framed is the reply holding out, with kept as its Response.Kept, once
// the per-request result caps admit it; prof records its rows and bytes.
func (e *Engine) framed(out *relation.Frame, kept []byte, prof *transport.SiteProfile, start time.Time) (*transport.Response, error) {
	l, n := e.getLimits(), int64(len(out.Bytes()))
	if l.MaxResultRows > 0 && out.Len() > l.MaxResultRows {
		return nil, fmt.Errorf("site %s: result of %d rows exceeds max-result-rows %d: %w",
			e.id, out.Len(), l.MaxResultRows, transport.ErrOverloaded)
	}
	if l.MaxResultBytes > 0 && n > l.MaxResultBytes {
		return nil, fmt.Errorf("site %s: result of %d bytes exceeds max-result-bytes %d: %w",
			e.id, n, l.MaxResultBytes, transport.ErrOverloaded)
	}
	if prof != nil {
		prof.RowsOut, prof.BytesOutApprox = out.Len(), n
	}
	resp := &transport.Response{Kept: kept, ComputeNs: time.Since(start).Nanoseconds()}
	resp.SetFrame(out)
	return resp, nil
}

// approxRelBytes estimates a shipped base's payload size without encoding
// it (SiteProfile.BytesInApprox): eight bytes per numeric value, string
// lengths as-is, plus a small per-row overhead.
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
		if err := e.load(req.Rel, req.Data); err != nil {
			return nil, err
		}
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
		if err := e.load(name, r); err != nil {
			return nil, err
		}
		return &transport.Response{RowCount: r.Len(), ComputeNs: time.Since(start).Nanoseconds()}, nil

	case transport.OpRelInfo:
		b, err := e.batch(e.relations(), req.Rel)
		if err != nil {
			return nil, err
		}
		resp := &transport.Response{RowCount: b.Len()}
		resp.SetFrame(relation.EncodeFrame(b.Schema, 0, nil, nil))
		return resp, nil

	case transport.OpEvalRounds:
		return e.evalRounds(ctx, req, prof)

	default:
		return nil, fmt.Errorf("unknown op %d", req.Op)
	}
}

// shape is a request shape made ready to run over one version of the
// stored relations: its base definition and rounds, parsed by the request
// that added it, its reply's schema, and a chain that keeps their plans and
// each kernel worker's programs (gmdj.Chain), while no request holds it.
type shape struct {
	chain atomic.Pointer[gmdj.Chain]
	def   *gmdj.BaseDef
	mds   []gmdj.MD
	reply *relation.Schema
}

// shapeOf appends to dst the shape of an evaluation request: everything
// preparing it reads of the request — the base's definition or a shipped
// base's columns, and every round's text — each list and string
// length-prefixed, and nothing else (not Round, QueryID or the base's rows).
func shapeOf(dst []byte, req *transport.Request) []byte {
	put := func(ss ...string) {
		dst = binary.AppendUvarint(dst, uint64(len(ss)))
		for _, s := range ss {
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		}
	}
	var cols []relation.Column // a shipped base's
	if req.Base != nil && req.Base.Schema != nil {
		cols = req.Base.Schema.Cols
	}
	put(req.Detail, req.BaseWhere, strconv.FormatBool(req.Base != nil), strconv.Itoa(len(cols)), strconv.Itoa(len(req.Rounds)))
	put(req.BaseCols...)
	for _, c := range cols {
		put(c.Name, c.Kind.String())
	}
	for _, r := range req.Rounds {
		put(r.Detail, r.BaseAlias, r.DetailAlias, strconv.FormatBool(r.Finalize), strconv.FormatBool(r.Touched), strconv.Itoa(len(r.Aggs)))
		put(r.Thetas...)
		for _, l := range r.Aggs {
			put(l...)
		}
	}
	return dst
}

// baseDef returns the detail batch of the base-values query B_0 req defines
// over rels, and parses that query's definition into sh unless sh has it.
// The detail is req.Detail, else the first round's.
func (e *Engine) baseDef(rels map[string]stored, req *transport.Request, sh *shape) (*vec.Batch, error) {
	name := req.Detail
	if name == "" && len(req.Rounds) > 0 {
		name = req.Rounds[0].Detail
	}
	detail, err := e.batch(rels, name)
	if err != nil {
		return nil, err
	}
	if sh.def == nil {
		def := &gmdj.BaseDef{Cols: slices.Clone(req.BaseCols)}
		if req.BaseWhere != "" {
			if def.Where, err = expr.Parse(req.BaseWhere); err != nil {
				return nil, fmt.Errorf("base filter: %w", err)
			}
		}
		sh.def = def
	}
	return detail, nil
}

// evalRounds runs zero or more GMDJ rounds locally. With req.Base set the
// shipped base-result fragment is used; with req.BaseCols set the base is
// computed locally first (Proposition 2 fusion), and with no rounds that
// base is the reply: the base round. Multiple rounds evaluate as a local
// chain without intermediate synchronization (Theorem 5 / Corollary 1); a
// later round's θ sees the finalized aggregates of earlier ones it names.
// Every round leaves its states in a slab and the reply is framed once from
// them: a shipped base gets the states alone, in shipped order, with
// Response.Kept; a fused one the base echoed beside the states. It runs on
// a chain its shape kept (a hit) or prepares what its shape lacks as it
// runs (a miss), in the order a request fails in — the base, every round's
// text, then each round — and keeps only what a request that succeeds
// prepared.
func (e *Engine) evalRounds(ctx context.Context, req *transport.Request, prof *transport.SiteProfile) (resp *transport.Response, err error) {
	if len(req.Rounds) == 0 && (req.Detail == "" || len(req.BaseCols) == 0) {
		return nil, fmt.Errorf("no rounds and no base to compute (a base round sets Detail and BaseCols)")
	}
	start := time.Now()
	shipped := req.ShipsBase()
	o := e.getObs()
	// One version of the stored relations for the whole request, and of the
	// shapes prepared over them: a Load racing it cannot swap a relation
	// between its rounds or hand it programs of another batch.
	var buf [512]byte
	key := shapeOf(buf[:0], req)
	e.mu.RLock()
	rels, shapes := e.rels, e.shapes
	sh := shapes[string(key)]
	e.mu.RUnlock()
	known := sh != nil
	if !known {
		sh = new(shape)
	}
	// One chain for the request: its fused base filter and locally chained
	// rounds share each kernel worker's buffers, and each round takes the
	// chain's next slab and match counts, reset for it. The reply is framed
	// out of them before the chain is rewound.
	chain := sh.chain.Swap(nil)
	if chain != nil {
		o.Count("site.prepare_hits", 1)
	} else {
		o.Count("site.prepare_misses", 1)
		chain = e.spare.Get().(*gmdj.Chain)
	}
	// A shape keeps a chain from its second request on: one seen once goes
	// in the map with its parsed parts, its chain back to spare, so shapes
	// that never repeat share chains as requests of one shape do. A chain
	// that finds its shape's place taken goes to spare too.
	defer func() {
		chain.Rewind()
		if resp != nil && known {
			if chain.Shrink(maxKeptGroups); sh.chain.CompareAndSwap(nil, chain) {
				return
			}
		} else if resp != nil {
			e.addShape(shapes, string(key), sh)
		}
		e.spare.Put(chain)
	}()
	var base *gmdj.Base
	switch {
	case len(req.BaseCols) > 0:
		detail, err := e.baseDef(rels, req, sh)
		if err != nil {
			return nil, err
		}
		if len(req.Rounds) == 0 {
			out, err := chain.EvalBaseFrame(detail, sh.def)
			if err != nil {
				return nil, err
			}
			return e.framed(out, nil, prof, start)
		}
		// The fused rounds' kernels read the base from the detail's lanes.
		if base, err = chain.EvalBaseLanes(detail, sh.def); err != nil {
			return nil, err
		}
	case req.Base != nil && req.Base.Schema != nil:
		base = chain.RowBase(req.Base)
	default:
		return nil, fmt.Errorf("no base relation (ship Base or set BaseCols)")
	}
	if sh.mds == nil {
		mds := make([]gmdj.MD, len(req.Rounds))
		for ri, spec := range req.Rounds {
			var err error
			if mds[ri], err = parseRound(spec); err != nil {
				return nil, fmt.Errorf("round %d: %w", ri+1, err)
			}
		}
		sh.mds = mds
	}

	// The reply leads with a fused base's own columns.
	var keys []relation.LaneSource
	own := base.Schema.Cols
	if !shipped {
		keys = base.Lanes()
	}
	// Accumulated |RNG| counts across the Touched rounds (Proposition 1
	// over θ_1 ∨ ... ∨ θ_m of the whole chain); nil when none is.
	var touched []int64

	workers := runtime.GOMAXPROCS(0)
	o.SetGauge("site.eval_workers", int64(workers))

	// The request's kernel statistics: the one record its profile and
	// the site's vec.* metrics are read from.
	var vecStats vec.Stats
	if prof != nil {
		prof.Rounds = len(req.Rounds)
		prof.Workers = workers
		prof.Engine = "vector"
		if req.Base != nil {
			prof.RowsIn = req.Base.Len()
			prof.BytesInApprox = approxRelBytes(req.Base)
		}
	}

	n := base.Len()
	// Chains are short: the slabs stay on the stack.
	slabs := make([]*agg.Slab, 0, 4)
	for ri := range sh.mds {
		spec := req.Rounds[ri]
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		detail, err := e.batch(rels, spec.Detail)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		slab, matched, err := chain.EvalStates(base, detail, &sh.mds[ri], gmdj.SubOpts{Workers: workers, Stats: &vecStats})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", ri+1, err)
		}
		slabs = append(slabs, slab)
		switch {
		case spec.Touched && touched == nil:
			touched = matched
		case spec.Touched:
			for i, m := range matched {
				touched[i] += m
			}
		}
		// The coordinator finalizes from the merged states, so finals only
		// feed the later rounds that name them.
		if spec.Finalize && ri < len(sh.mds)-1 {
			if err := withFinals(base, slab, sh.mds[ri+1:]); err != nil {
				return nil, fmt.Errorf("round %d: %w", ri+1, err)
			}
		}
	}

	o.Count("vec.batches", vecStats.Batches)
	o.Count("vec.rows", vecStats.Rows)
	if vecStats.FilterRows > 0 {
		o.SetGauge("vec.selectivity", vecStats.Selected*1000/vecStats.FilterRows)
	}

	if sh.reply == nil {
		// The reply's columns: a fused base's, then every round's states.
		var cols []relation.Column
		if !shipped {
			cols = append(cols, own...)
		}
		for _, md := range sh.mds {
			for _, sp := range md.Specs() {
				cols = append(cols, sp.SubColumns()...)
			}
		}
		if sh.reply, err = relation.NewSchema(cols...); err != nil {
			return nil, err
		}
	}
	out, kept := frameReply(sh.reply, n, keys, slabs, touched)
	if !shipped {
		kept = nil
	}
	if resp, err = e.framed(out, kept, prof, start); err != nil {
		return nil, err
	}
	o.Count("site.rounds_served", int64(len(req.Rounds)))
	if req.Base != nil {
		o.Count("site.groups_in", int64(req.Base.Len()))
	}
	o.Count("site.groups_out", int64(out.Len()))
	if prof != nil {
		prof.VecBatches = vecStats.Batches
		prof.VecRows = vecStats.Rows
		prof.VecFilterRows = vecStats.FilterRows
		prof.VecSelected = vecStats.Selected
	}
	return resp, nil
}

// withFinals appends to b the finalized aggregates of slab's states that a
// θ of later names, every group's, before the next round reads b.
func withFinals(b *gmdj.Base, slab *agg.Slab, later []gmdj.MD) error {
	specs := slab.Specs()
	var cols []relation.Column
	var idx []int
	for si, s := range specs {
		if named(later, s.As) {
			cols, idx = append(cols, s.OutColumn()), append(idx, si)
		}
	}
	if len(idx) == 0 {
		return nil
	}
	finals, err := b.Extend(cols...)
	if err != nil {
		return err
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		for j, si := range idx {
			v, err := slab.Finalize(i, si)
			if err != nil {
				return fmt.Errorf("finalize %s: %w", specs[si], err)
			}
			finals[j*n+i] = v
		}
	}
	return nil
}

// named reports whether a θ of mds names the column col.
func named(mds []gmdj.MD, col string) bool {
	found := false
	for _, md := range mds {
		for _, theta := range md.Thetas {
			expr.Walk(theta, func(x expr.Expr) {
				if c, ok := x.(expr.Col); ok && !found {
					found = strings.EqualFold(c.Name, col)
				}
			})
			if found {
				return true
			}
		}
	}
	return false
}

// frameReply frames the answer to n base rows under schema from one pass
// over each lane: a row per group with a non-zero touched count (every
// group when touched is nil — Proposition 1's site-side half), holding the
// keys lanes, then every slab's states. kept is the bitmap of the groups it
// kept, nil when it kept all; the counts themselves are not shipped.
func frameReply(schema *relation.Schema, n int, keys []relation.LaneSource, slabs []*agg.Slab, touched []int64) (*relation.Frame, []byte) {
	var kept []byte
	if slices.Contains(touched, 0) {
		kept = make([]byte, (n+7)/8)
		for i, t := range touched {
			if t != 0 {
				kept[i/8] |= 1 << (i % 8)
			}
		}
	}
	lanes := append(make([]relation.LaneSource, 0, schema.Len()), keys...)
	for _, s := range slabs {
		for p := 0; p < s.Width(); p++ {
			lanes = append(lanes, s.Lane(p))
		}
	}
	return relation.EncodeFrame(schema, n, kept, lanes), kept
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
