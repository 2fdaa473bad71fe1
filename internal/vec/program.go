package vec

//lint:deterministic vectorized evaluation must match the row engine byte for byte

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// Stats counts kernel work for the vec.* observability counters: Batches
// is the number of kernel-batch evaluations, Rows the lanes scanned
// through them, Selected the lanes that survived condition filters.
type Stats struct {
	Batches    int64
	Rows       int64
	FilterRows int64
	Selected   int64
}

// Lanes is the result of evaluating a program node over a selection: a
// dense vector of len N, either a broadcast constant (Const/ConstV), a
// typed payload in the same layout as Col, or — where a CASE or a scalar
// call yields different kinds on different lanes — one boxed value per
// lane, which has no exported payload: Kind is then none of the value
// kinds and Value reads the lanes. Nulls marks NULL lanes (nil when none).
// Payload slices are read-only, valid until the program's next evaluation:
// scratch the program owns, or a run of the batch's own column.
type Lanes struct {
	Kind   value.Kind
	N      int
	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string
	Nulls  []bool
	Const  bool
	ConstV value.V

	nullBuf []bool
	vals    []value.V // the lanes of a kindBoxed vector
}

// kindBoxed is the Kind of a vector whose lanes live in vals. It is no
// value kind, so every kind switch sends it down its per-lane default.
const kindBoxed = value.Kind(0xff)

// Value boxes lane i of the vector.
func (l *Lanes) Value(i int) value.V {
	if l.Const {
		return l.ConstV
	}
	if l.Nulls != nil && l.Nulls[i] {
		return value.Null
	}
	switch l.Kind {
	case kindBoxed:
		return l.vals[i]
	case value.KindBool:
		return value.NewBool(l.Ints[i] != 0)
	case value.KindInt:
		return value.NewInt(l.Ints[i])
	case value.KindFloat:
		return value.NewFloat(l.Floats[i])
	case value.KindString:
		return value.NewString(l.Dict[l.Codes[i]])
	default:
		return value.Null
	}
}

func (l *Lanes) isNull(i int) bool {
	if l.Const {
		return l.ConstV.IsNull()
	}
	return l.Kind == value.KindNull || (l.Nulls != nil && l.Nulls[i])
}

// truthy reports SQL WHERE truthiness of lane i, matching value.V.Bool.
func (l *Lanes) truthy(i int) bool {
	if l.Const {
		return l.ConstV.Bool()
	}
	if l.isNull(i) {
		return false
	}
	switch l.Kind {
	case value.KindBool, value.KindInt:
		return l.Ints[i] != 0
	case value.KindFloat:
		return l.Floats[i] != 0
	case kindBoxed:
		return l.vals[i].Bool()
	default:
		return false
	}
}

func (l *Lanes) effKind() value.Kind {
	if l.Const {
		return l.ConstV.K
	}
	return l.Kind
}

// Scratch is a pool of lane buffers. Every Program draws its nodes' scratch
// vectors from the one it was compiled with, and keeps them as long as it
// is evaluated; an evaluator that replaces its programs (a site worker
// whose operator changed) calls Reset before it compiles the new ones, so
// they reuse the old ones' buffers instead of growing their own. Not safe
// for concurrent use.
type Scratch struct {
	i64   bufPool[int64]
	f64   bufPool[float64]
	i32   bufPool[int32]
	bools bufPool[bool]
	vals  bufPool[value.V]
	boxed bool // vals written since Program.Release cleared them
}

// Reset returns every buffer handed out so far to the pool. Programs
// compiled before the call must not be evaluated after it.
func (sc *Scratch) Reset() {
	sc.i64.reset()
	sc.f64.reset()
	sc.i32.reset()
	sc.bools.reset()
	sc.vals.reset()
}

type bufPool[T any] struct{ free, used [][]T }

// grow returns s resliced to n lanes when it is large enough, and a pooled
// or new buffer otherwise. Capacities are rounded up to a power of two so
// a node fed slowly growing selections (key groups of uneven size) does
// not reallocate at every new maximum.
func (p *bufPool[T]) grow(s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	for i, b := range p.free {
		if cap(b) >= n {
			last := len(p.free) - 1
			p.free[i] = p.free[last]
			p.free = p.free[:last]
			p.used = append(p.used, b)
			return b[:n]
		}
	}
	b := make([]T, n, 1<<bits.Len(uint(n-1)))
	p.used = append(p.used, b)
	return b
}

func (p *bufPool[T]) reset() {
	p.free = append(p.free, p.used...)
	p.used = p.used[:0]
}

// growB is bools.grow with the lanes cleared.
func (sc *Scratch) growB(s []bool, n int) []bool {
	s = sc.bools.grow(s, n)
	for i := range s {
		s[i] = false
	}
	return s
}

// reset prepares the scratch vector for n lanes of the given kind.
func (l *Lanes) reset(sc *Scratch, kind value.Kind, n int) {
	l.Kind, l.N, l.Const, l.Nulls, l.ConstV = kind, n, false, nil, value.Null
	l.Codes, l.Dict = nil, nil
	switch kind {
	case value.KindBool, value.KindInt:
		l.Ints = sc.i64.grow(l.Ints, n)
	case value.KindFloat:
		l.Floats = sc.f64.grow(l.Floats, n)
	}
}

func (l *Lanes) setConst(v value.V, n int) *Lanes {
	l.Kind, l.N, l.Const, l.ConstV, l.Nulls = v.K, n, true, v, nil
	return l
}

// startPut prepares the vector for lane-by-lane assembly: n lanes, each
// NULL until put stores a value there.
func (l *Lanes) startPut(sc *Scratch, n int) {
	l.reset(sc, value.KindNull, n)
	l.nullBuf = sc.bools.grow(l.nullBuf, n)
	for i := range l.nullBuf {
		l.nullBuf[i] = true
	}
	l.Nulls = l.nullBuf
}

// put stores v at lane i of a vector under assembly. The first non-NULL
// number fixes a typed layout, which holds while every later value has
// that kind; a value of another kind, or a string (there is no dictionary
// to join), boxes the lanes stored so far and everything after them.
func (l *Lanes) put(sc *Scratch, i int, v value.V) {
	if v.IsNull() {
		return
	}
	switch {
	case l.Kind == v.K || l.Kind == kindBoxed:
		// the layout already holds v
	case l.Kind == value.KindNull && v.K == value.KindFloat:
		l.Kind, l.Floats = v.K, sc.f64.grow(l.Floats, l.N)
	case l.Kind == value.KindNull && v.K != value.KindString:
		l.Kind, l.Ints = v.K, sc.i64.grow(l.Ints, l.N)
	default:
		l.vals, sc.boxed = sc.vals.grow(l.vals, l.N), true
		for j := range l.vals {
			l.vals[j] = l.Value(j)
		}
		l.Kind = kindBoxed
	}
	l.Nulls[i] = false
	switch l.Kind {
	case kindBoxed:
		l.vals[i] = v
	case value.KindFloat:
		l.Floats[i] = v.Float()
	default:
		l.Ints[i] = v.Int()
	}
}

// node is one compiled operator; eval produces the node's vector over the
// selected batch lanes. Nodes own their output scratch, so a Program must
// not be shared across goroutines.
type node interface {
	eval(p *Program, sel []int32) (*Lanes, error)
}

// Program is a column-program: an expr condition or scalar compiled
// against one batch for repeated masked evaluation. A Program is bound to
// a single base row at a time via SetBase and is not safe for concurrent
// use; parallel evaluators compile one Program per worker.
type Program struct {
	batch  *Batch
	root   node
	bounds []*expr.Bound
	slots  []scalarSlot
	base   relation.Row
	stats  *Stats
	sc     *Scratch
	picked []int32    // Filter's result
	held   []*value.V // scalar broadcasts and call arguments (Release)
}

type scalarSlot struct {
	done bool
	v    value.V
	err  error
}

// chunkLanes bounds per-node scratch: selections are evaluated in
// segments of at most this many lanes.
const chunkLanes = 4096

// Compile builds a column-program for e over batch b using the binding's
// detail side for column references; detail-free subtrees (constants and
// base-side references) become per-base-row scalars. Every node kind of
// the expression language compiles; what fails is what the row binder
// rejects too (an unknown column, function or operator). The program draws
// its lane buffers from sc, which programs evaluated on the same goroutine
// may share.
func Compile(e expr.Expr, bd expr.Binding, b *Batch, sc *Scratch) (*Program, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	p := &Program{batch: b, sc: sc}
	root, err := p.compile(e, bd)
	if err != nil {
		return nil, err
	}
	p.root = root
	p.slots = make([]scalarSlot, len(p.bounds))
	return p, nil
}

// SetBase binds the program to a base row, invalidating cached scalar
// subtree results from the previous row.
func (p *Program) SetBase(base relation.Row) {
	p.base = base
	for i := range p.slots {
		p.slots[i] = scalarSlot{}
	}
}

// Release drops every value p holds of what it last read — its base row,
// the scalars computed from it, call arguments, and the boxed lanes in its
// Scratch (for every program drawing from it) — and keeps p compiled.
func (p *Program) Release() {
	p.SetBase(nil)
	for _, v := range p.held {
		*v = value.V{}
	}
	if p.sc.boxed {
		for _, b := range p.sc.vals.used {
			clear(b[:cap(b)])
		}
		for _, b := range p.sc.vals.free {
			clear(b[:cap(b)])
		}
		p.sc.boxed = false
	}
}

// SetStats directs kernel work counters to s (nil disables counting).
func (p *Program) SetStats(s *Stats) { p.stats = s }

func (p *Program) scalarValue(slot int) (value.V, error) {
	s := &p.slots[slot]
	if !s.done {
		s.v, s.err = p.bounds[slot].Eval(p.base, nil)
		s.done = true
	}
	return s.v, s.err
}

func (p *Program) countFilter(scanned, selected int) {
	if p.stats != nil {
		p.stats.Batches++
		p.stats.Rows += int64(scanned)
		p.stats.FilterRows += int64(scanned)
		p.stats.Selected += int64(selected)
	}
}

func (p *Program) countEval(scanned int) {
	if p.stats != nil {
		p.stats.Batches++
		p.stats.Rows += int64(scanned)
	}
}

// Filter evaluates the program as a predicate over the selected lanes and
// returns the truthy ones, preserving selection order. NULL results are
// false, as in SQL WHERE semantics. The result's lanes are a buffer of the
// program's, drawn from its Scratch: valid until its next Filter.
func (p *Program) Filter(sel Sel) (Sel, error) {
	if err := p.batch.owns(sel); err != nil {
		return Sel{}, err
	}
	p.picked = p.sc.i32.grow(p.picked, sel.Len())
	dst := p.picked[:0]
	// Constant-true residuals (the common equi-join case) select
	// everything without touching the kernels.
	if c, ok := p.root.(*constNode); ok {
		n := 0
		if c.v.Bool() {
			dst = append(dst, sel.lanes...)
			n = sel.Len()
		}
		p.countFilter(sel.Len(), n)
		return Sel{lanes: dst, n: sel.n}, nil
	}
	for start := 0; start < sel.Len(); start += chunkLanes {
		seg := sel.lanes[start:min(start+chunkLanes, sel.Len())]
		picked := len(dst)
		var err error
		if dst, err = p.filter(p.root, seg, dst); err != nil {
			return Sel{}, err
		}
		p.countFilter(len(seg), len(dst)-picked)
	}
	return Sel{lanes: dst, n: sel.n}, nil
}

// filter appends to dst the lanes of sel on which n is true, in selection
// order, narrowing the selection inside the predicate. AND filters its
// left child, then its right child over the survivors — exactly the lanes
// logicNode.eval evaluates the right child on, so the same lanes can
// raise errors. A comparison of a numeric column with a per-base-row value
// selects in one pass (cmpNode.filter). Any other node evaluates to lanes
// and keeps the truthy ones.
func (p *Program) filter(n node, sel, dst []int32) ([]int32, error) {
	switch n := n.(type) {
	case *logicNode:
		if n.and {
			var err error
			if n.subsel, err = p.filter(n.l, sel, n.subsel[:0]); err != nil || len(n.subsel) == 0 {
				return dst, err
			}
			return p.filter(n.r, n.subsel, dst)
		}
	case *cmpNode:
		if out, ok, err := n.filter(p, sel, dst); ok {
			return out, err
		}
	}
	out, err := n.eval(p, sel)
	if err != nil {
		return nil, err
	}
	for i, lane := range sel {
		if out.truthy(i) {
			dst = append(dst, lane)
		}
	}
	return dst, nil
}

// EvalEach evaluates the program as a scalar expression over the selected
// lanes in segments, invoking fn once per segment with the resulting
// vector. The vector is scratch: fn must consume it before returning.
func (p *Program) EvalEach(sel Sel, fn func(*Lanes) error) error {
	if err := p.batch.owns(sel); err != nil {
		return err
	}
	for start := 0; start < sel.Len(); start += chunkLanes {
		seg := sel.lanes[start:min(start+chunkLanes, sel.Len())]
		out, err := p.root.eval(p, seg)
		if err != nil {
			return err
		}
		p.countEval(len(seg))
		if err := fn(out); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) compile(e expr.Expr, bd expr.Binding) (node, error) {
	// Subtrees that never read the detail side evaluate once per base row
	// through the row-engine evaluator itself, so scalar semantics
	// (including error behavior) are identical by construction.
	if _, detail := expr.SidesUsed(e, bd); !detail {
		if c, ok := e.(expr.Const); ok {
			return &constNode{v: c.Val}, nil
		}
		bound, err := expr.Bind(e, bd)
		if err != nil {
			return nil, err
		}
		n := &scalarNode{slot: len(p.bounds)}
		p.bounds = append(p.bounds, bound)
		p.held = append(p.held, &n.out.ConstV)
		return n, nil
	}
	switch n := e.(type) {
	case expr.Col:
		side, ok := bd.SideOf(n)
		if !ok || side != expr.SideDetail {
			// Unknown or ambiguous (a base-side column is detail-free and
			// never gets here): the row binder's error.
			_, err := expr.Bind(e, bd)
			return nil, err
		}
		idx, err := p.batch.Schema.MustLookup(n.Name)
		if err != nil {
			return nil, err
		}
		if err := p.batch.checkCol(idx); err != nil {
			return nil, err
		}
		return &colNode{col: idx}, nil

	case expr.Unary:
		x, err := p.compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		if n.Op == "NOT" {
			return &notNode{x: x}, nil
		}
		return &negNode{x: x}, nil

	case expr.Binary:
		l, err := p.compile(n.L, bd)
		if err != nil {
			return nil, err
		}
		r, err := p.compile(n.R, bd)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "AND", "OR":
			return &logicNode{and: n.Op == "AND", l: l, r: r}, nil
		case "=", "!=", "<", "<=", ">", ">=":
			return &cmpNode{l: l, r: r, holds: cmpHolds[n.Op]}, nil
		case "+", "-", "*", "/", "%":
			return &arithNode{op: n.Op[0], l: l, r: r}, nil
		default:
			return nil, fmt.Errorf("expr: unknown operator %q", n.Op)
		}

	case expr.InList:
		x, err := p.compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		in := &inNode{x: x, neg: n.Neg,
			ints: make(map[int64]struct{}),
			fbit: make(map[uint64]struct{}),
			strs: make(map[string]struct{}),
		}
		for _, v := range n.Vals {
			switch v.K {
			case value.KindBool, value.KindInt:
				in.ints[v.Int()] = struct{}{}
			case value.KindFloat:
				if iv, ok := value.IntegralFloat(v.Float()); ok {
					in.ints[iv] = struct{}{}
				} else if math.IsNaN(v.Float()) {
					in.hasNaN = true
				} else {
					in.fbit[math.Float64bits(v.Float())] = struct{}{}
				}
			case value.KindString:
				in.strs[v.S] = struct{}{}
			}
		}
		return in, nil

	case expr.Like:
		x, err := p.compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		return &likeNode{x: x, pattern: n.Pattern, neg: n.Neg}, nil

	case expr.Between:
		x, err := p.compile(n.X, bd)
		if err != nil {
			return nil, err
		}
		lo, err := p.compile(n.Lo, bd)
		if err != nil {
			return nil, err
		}
		hi, err := p.compile(n.Hi, bd)
		if err != nil {
			return nil, err
		}
		return &betweenNode{x: x, lo: lo, hi: hi, neg: n.Neg}, nil

	case expr.Const:
		return &constNode{v: n.Val}, nil

	case expr.Case:
		cn := &caseNode{arms: make([]caseArm, len(n.Whens))}
		for i, w := range n.Whens {
			cond, err := p.compile(w.Cond, bd)
			if err != nil {
				return nil, err
			}
			then, err := p.compile(w.Then, bd)
			if err != nil {
				return nil, err
			}
			cn.arms[i] = caseArm{cond: cond, then: then}
		}
		if n.Else != nil {
			els, err := p.compile(n.Else, bd)
			if err != nil {
				return nil, err
			}
			cn.els = els
		}
		return cn, nil

	case expr.Call:
		// Bind the call over a row of its own arguments: an unknown name
		// or a wrong argument count is the row binder's error, and the
		// bound body is what callNode runs per lane.
		cols := make([]relation.Column, len(n.Args))
		refs := make([]expr.Expr, len(n.Args))
		args := make([]node, len(n.Args))
		for i, a := range n.Args {
			name := "a" + strconv.Itoa(i)
			cols[i], refs[i] = relation.Column{Name: name}, expr.Col{Name: name}
			x, err := p.compile(a, bd)
			if err != nil {
				return nil, err
			}
			args[i] = x
		}
		schema, err := relation.NewSchema(cols...)
		if err != nil {
			return nil, err
		}
		body, err := expr.Bind(expr.Call{Name: n.Name, Args: refs}, expr.SingleRelation(schema))
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(n.Name, "coalesce") {
			// The one lazy function: an argument is evaluated only over
			// the lanes every earlier argument left NULL.
			cn := &caseNode{arms: make([]caseArm, len(args))}
			for i, x := range args {
				cn.arms[i].then = x
			}
			return cn, nil
		}
		cn := &callNode{args: args, body: body,
			vals: make([]*Lanes, len(args)), row: make(relation.Row, len(args))}
		for i := range cn.row {
			p.held = append(p.held, &cn.row[i])
		}
		return cn, nil
	}
	return nil, fmt.Errorf("expr: cannot compile %T", e)
}

func numericish(k value.Kind) bool {
	return k == value.KindBool || k == value.KindInt || k == value.KindFloat
}

// floatLanes materializes the vector as float64 lanes into scratch (bool
// and int lanes convert; const broadcasts). Null lanes hold 0.
func floatLanes(sc *Scratch, l *Lanes, n int, scratch []float64) []float64 {
	scratch = sc.f64.grow(scratch, n)
	if l.Const {
		f, _ := l.ConstV.AsFloat()
		for i := range scratch {
			scratch[i] = f
		}
		return scratch
	}
	if l.Kind == value.KindFloat {
		copy(scratch, l.Floats)
		return scratch
	}
	for i := 0; i < n; i++ {
		scratch[i] = float64(l.Ints[i])
	}
	return scratch
}

// intLanes materializes the vector as int64 lanes, using value.AsInt
// truncation for float lanes (the %% operator's semantics).
func intLanes(sc *Scratch, l *Lanes, n int, scratch []int64) []int64 {
	scratch = sc.i64.grow(scratch, n)
	if l.Const {
		iv, _ := l.ConstV.AsInt()
		for i := range scratch {
			scratch[i] = iv
		}
		return scratch
	}
	if l.Kind == value.KindFloat {
		for i := 0; i < n; i++ {
			scratch[i] = int64(l.Floats[i])
		}
		return scratch
	}
	copy(scratch, l.Ints)
	return scratch
}

// rawIntLanes materializes int64 lanes for +,-,* over integral kinds,
// which read the int payload directly.
func rawIntLanes(sc *Scratch, l *Lanes, n int, scratch []int64) []int64 {
	scratch = sc.i64.grow(scratch, n)
	if l.Const {
		for i := range scratch {
			scratch[i] = l.ConstV.Int()
		}
		return scratch
	}
	copy(scratch, l.Ints)
	return scratch
}

func laneStr(l *Lanes, i int) string {
	if l.Const {
		return l.ConstV.S
	}
	return l.Dict[l.Codes[i]]
}

// nullLanes merges the null masks of both operands into scratch; the
// second result reports whether any lane is null.
func nullLanes(sc *Scratch, l, r *Lanes, n int, scratch []bool) ([]bool, bool) {
	scratch = sc.growB(scratch, n)
	any := false
	for i := 0; i < n; i++ {
		if l.isNull(i) || r.isNull(i) {
			scratch[i] = true
			any = true
		}
	}
	return scratch, any
}

type constNode struct {
	v   value.V
	out Lanes
}

func (n *constNode) eval(_ *Program, sel []int32) (*Lanes, error) {
	return n.out.setConst(n.v, len(sel)), nil
}

type scalarNode struct {
	slot int
	out  Lanes
}

func (n *scalarNode) eval(p *Program, sel []int32) (*Lanes, error) {
	v, err := p.scalarValue(n.slot)
	if err != nil {
		return nil, err
	}
	return n.out.setConst(v, len(sel)), nil
}

type colNode struct {
	col int
	out Lanes
	// The node's own lane buffers: out's payload is one of them, or a run
	// of the column itself, which no node writes.
	ints  []int64
	flts  []float64
	codes []int32
}

func (n *colNode) eval(p *Program, sel []int32) (*Lanes, error) {
	c := &p.batch.Cols[n.col]
	ln := len(sel)
	out := &n.out
	out.Kind, out.N, out.Const, out.Nulls, out.ConstV, out.Dict = c.Kind, ln, false, nil, value.Null, c.Dict
	lo, run := p.batch.run(sel)
	inPlace := run && c.Nulls == nil
	switch c.Kind {
	case value.KindBool, value.KindInt:
		out.Ints = take(&p.sc.i64, &n.ints, c.Ints, sel, lo, inPlace)
	case value.KindFloat:
		out.Floats = take(&p.sc.f64, &n.flts, c.Floats, sel, lo, inPlace)
	case value.KindString:
		out.Codes = take(&p.sc.i32, &n.codes, c.Codes, sel, lo, inPlace)
	}
	if c.Nulls != nil {
		nulls := p.sc.growB(out.nullBuf, ln)
		any := false
		for i, lane := range sel {
			if c.Nulls.Get(int(lane)) {
				nulls[i] = true
				any = true
			}
		}
		out.nullBuf = nulls
		if any {
			out.Nulls = nulls
		}
	}
	return out, nil
}

// take returns the selected lanes of xs: the run at lo read in place when
// inPlace, else gathered into *buf, grown from pool.
func take[T any](pool *bufPool[T], buf *[]T, xs []T, sel []int32, lo int, inPlace bool) []T {
	if inPlace {
		return xs[lo : lo+len(sel) : lo+len(sel)]
	}
	dst := pool.grow(*buf, len(sel))
	*buf = dst
	for i, lane := range sel {
		dst[i] = xs[lane]
	}
	return dst
}

type notNode struct {
	x   node
	out Lanes
}

func (n *notNode) eval(p *Program, sel []int32) (*Lanes, error) {
	x, err := n.x.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	if x.Const {
		return n.out.setConst(value.NewBool(!x.ConstV.Bool()), ln), nil
	}
	out := &n.out
	out.reset(p.sc, value.KindBool, ln)
	for i := 0; i < ln; i++ {
		if x.truthy(i) {
			out.Ints[i] = 0
		} else {
			out.Ints[i] = 1
		}
	}
	return out, nil
}

type negNode struct {
	x   node
	out Lanes
}

func (n *negNode) eval(p *Program, sel []int32) (*Lanes, error) {
	x, err := n.x.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	out := &n.out
	switch {
	case !x.Const && x.Kind == value.KindInt:
		out.reset(p.sc, value.KindInt, ln)
		for i := 0; i < ln; i++ {
			out.Ints[i] = -x.Ints[i]
		}
		out.Nulls = x.Nulls
	case !x.Const && x.Kind == value.KindFloat:
		out.reset(p.sc, value.KindFloat, ln)
		for i := 0; i < ln; i++ {
			out.Floats[i] = -x.Floats[i]
		}
		out.Nulls = x.Nulls
	default:
		// Everything without a typed numeric payload — BOOL, STRING and
		// boxed lanes, an all-NULL or constant vector — goes through the
		// row engine's negation one by one: NULL negates to NULL, a
		// non-number is its error.
		out.startPut(p.sc, ln)
		for i := 0; i < ln; i++ {
			v, err := value.Neg(x.Value(i))
			if err != nil {
				return nil, err
			}
			out.put(p.sc, i, v)
		}
	}
	return out, nil
}

type logicNode struct {
	and    bool
	l, r   node
	out    Lanes
	subsel []int32
	subpos []int32
}

func (n *logicNode) eval(p *Program, sel []int32) (*Lanes, error) {
	l, err := n.l.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	if l.Const {
		lt := l.ConstV.Bool()
		// Short-circuit: AND with false left (OR with true left) never
		// evaluates the right child, exactly like the row engine.
		if n.and && !lt {
			return n.out.setConst(value.NewBool(false), ln), nil
		}
		if !n.and && lt {
			return n.out.setConst(value.NewBool(true), ln), nil
		}
		r, err := n.r.eval(p, sel)
		if err != nil {
			return nil, err
		}
		if r.Const {
			return n.out.setConst(value.NewBool(r.ConstV.Bool()), ln), nil
		}
		out := &n.out
		out.reset(p.sc, value.KindBool, ln)
		for i := 0; i < ln; i++ {
			if r.truthy(i) {
				out.Ints[i] = 1
			} else {
				out.Ints[i] = 0
			}
		}
		return out, nil
	}
	// Masked evaluation: the right child sees only the lanes the left
	// child did not decide, preserving row-engine short-circuit (and
	// therefore error) behavior.
	n.subsel = n.subsel[:0]
	n.subpos = n.subpos[:0]
	for i := 0; i < ln; i++ {
		if l.truthy(i) == n.and {
			n.subsel = append(n.subsel, sel[i])
			n.subpos = append(n.subpos, int32(i))
		}
	}
	out := &n.out
	// The left result may live in a descendant's scratch that the right
	// child's evaluation reuses, so decide left lanes before recursing.
	out.reset(p.sc, value.KindBool, ln)
	base := int64(0)
	if !n.and {
		base = 1
	}
	for i := 0; i < ln; i++ {
		out.Ints[i] = base
	}
	if len(n.subsel) == 0 {
		return out, nil
	}
	r, err := n.r.eval(p, n.subsel)
	if err != nil {
		return nil, err
	}
	for k, pos := range n.subpos {
		if r.truthy(k) {
			out.Ints[pos] = 1
		} else {
			out.Ints[pos] = 0
		}
	}
	return out, nil
}

// cmpHolds is, per comparison operator, the set of orders for which it
// holds: bit order(x, y) of the mask (see order).
var cmpHolds = map[string]uint8{"=": 1, "!=": 6, "<": 2, "<=": 3, ">": 4, ">=": 5}

// order is the one comparison rule of the kernels — value.Compare on two
// non-NULL operands — as a bit index: 0 equal, 1 less, 2 greater. Callers
// compare ints and bools as int64 and anything else with a float side as
// float64, where NaN orders equal to everything, as in value.Compare.
func order[T cmp.Ordered](x, y T) uint { return bounded(x, y, y) }

// bounded is order against the interval [lo, hi]: 1 below it, 2 above it.
func bounded[T cmp.Ordered](x, lo, hi T) uint { return b2u(x < lo) | b2u(x > hi)<<1 }

func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

type cmpNode struct {
	l, r   node
	holds  uint8 // cmpHolds of the operator
	out    Lanes
	lf, rf []float64
	li, ri []int64
}

func (n *cmpNode) eval(p *Program, sel []int32) (*Lanes, error) {
	l, err := n.l.eval(p, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	if l.Const && r.Const {
		if l.ConstV.IsNull() || r.ConstV.IsNull() {
			return n.out.setConst(value.NewBool(false), ln), nil
		}
		c, err := value.Compare(l.ConstV, r.ConstV)
		if err != nil {
			return nil, err
		}
		return n.out.setConst(value.NewBool(n.holds>>order(c, 0)&1 != 0), ln), nil
	}
	out := &n.out
	out.reset(p.sc, value.KindBool, ln)
	lk, rk := l.effKind(), r.effKind()
	numeric := numericish(lk) && numericish(rk)
	floats := numeric && (lk == value.KindFloat || rk == value.KindFloat)
	switch {
	case floats:
		n.lf = floatLanes(p.sc, l, ln, n.lf)
		n.rf = floatLanes(p.sc, r, ln, n.rf)
	case numeric:
		n.li = rawIntLanes(p.sc, l, ln, n.li)
		n.ri = rawIntLanes(p.sc, r, ln, n.ri)
	}
	for i := range out.Ints {
		// NULL on either side (an all-NULL side included) is false.
		if l.isNull(i) || r.isNull(i) {
			out.Ints[i] = 0
			continue
		}
		var o uint
		switch {
		case floats:
			o = order(n.lf[i], n.rf[i])
		case numeric:
			o = order(n.li[i], n.ri[i])
		case lk == value.KindString && rk == value.KindString:
			o = order(laneStr(l, i), laneStr(r, i))
		default:
			// String against number, or boxed lanes: value.Compare raises
			// the row engine's error for a string/number pair.
			c, err := value.Compare(l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			o = order(c, 0)
		}
		out.Ints[i] = int64(n.holds >> o & 1)
	}
	return out, nil
}

// filter is the comparison's selection kernel: an int, float or bool
// column against a constant or per-base-row scalar, in either order,
// writes the lanes where it holds straight into dst in one branch-free
// pass. ok is false, with nothing written, for any other operand pair.
func (n *cmpNode) filter(p *Program, sel, dst []int32) (out []int32, ok bool, err error) {
	holds, x, y := n.holds, n.l, n.r
	if _, isCol := x.(*colNode); !isCol {
		// v op x is x op' v, where op' swaps less and greater.
		holds, x, y = holds&1|holds&2<<1|holds&4>>1, n.r, n.l
	}
	cn, isCol := x.(*colNode)
	if !isCol {
		return dst, false, nil
	}
	var v value.V
	switch y := y.(type) {
	case *constNode:
		v = y.v
	case *scalarNode:
		if v, err = p.scalarValue(y.slot); err != nil {
			return nil, true, err
		}
	default:
		return dst, false, nil
	}
	c := &p.batch.Cols[cn.col]
	if v.IsNull() || c.Kind == value.KindNull {
		return dst, true, nil
	}
	if !numericish(c.Kind) || !numericish(v.K) {
		return dst, false, nil
	}
	start := len(dst)
	dst = slices.Grow(dst, len(sel))[:start+len(sel)]
	to := dst[start:]
	first, run := p.batch.run(sel)
	var k int
	switch {
	case c.Kind == value.KindFloat:
		y, _ := v.AsFloat()
		k = selectHolds(to, sel, c.Floats, y, y, holds, c.Nulls, first, run)
	case v.K == value.KindFloat:
		if lo, hi, ok := foldInt(v.Float()); ok {
			k = selectHolds(to, sel, c.Ints, lo, hi, holds, c.Nulls, first, run)
		} else {
			k = selectHolds(to, sel, c.Ints, v.Float(), v.Float(), holds, c.Nulls, first, run)
		}
	default:
		k = selectHolds(to, sel, c.Ints, v.Int(), v.Int(), holds, c.Nulls, first, run)
	}
	return dst[:start+k], true, nil
}

// foldInt folds a FLOAT operand y into bounds on INT lanes x: float64(x) < y
// holds exactly when x < lo, and float64(x) > y exactly when x > hi, so the
// lanes compare as INT with value.Compare's verdict. float64 is monotone on
// int64 and exact within ±2^53, so ceil and floor are the bounds there; a
// NaN y orders equal to every lane. ok is false for every other y (±Inf,
// and magnitudes where converting a lane rounds), which compares as float.
func foldInt(y float64) (lo, hi int64, ok bool) {
	switch {
	case y != y:
		return math.MinInt64, math.MaxInt64, true
	case math.Abs(y) < 1<<53:
		return int64(math.Ceil(y)), int64(math.Floor(y)), true
	}
	return 0, 0, false
}

// selectHolds writes to out, in order, the lanes of sel whose non-NULL
// column value x has order(x, y) in holds, and returns how many it wrote;
// the order is bounded(T(x), lo, hi), with lo = hi = y but for foldInt's
// bounds. Every lane is stored and the cursor advances by the verdict, so
// the loop has no data-dependent branch; a run at first reads xs[first:]
// contiguously. NULL lanes leave in a second pass over the lanes kept.
func selectHolds[S, T int64 | float64](out, sel []int32, xs []S, lo, hi T, holds uint8, nulls *Bitmap, first int, run bool) int {
	k := 0
	if run {
		for i, x := range xs[first : first+len(sel)] {
			out[k] = int32(first + i)
			k += int(holds >> bounded(T(x), lo, hi) & 1)
		}
	} else {
		for _, lane := range sel {
			out[k] = lane
			k += int(holds >> bounded(T(xs[lane]), lo, hi) & 1)
		}
	}
	if nulls == nil {
		return k
	}
	kept := 0
	for _, lane := range out[:k] {
		out[kept] = lane
		kept += int(^nulls.bits[lane>>6] >> (uint(lane) & 63) & 1)
	}
	return kept
}

type arithNode struct {
	op     byte // + - * / %
	l, r   node
	out    Lanes
	lf, rf []float64
	li, ri []int64
	nulls  []bool
}

func (n *arithNode) apply(a, b value.V) (value.V, error) {
	switch n.op {
	case '+':
		return value.Add(a, b)
	case '-':
		return value.Sub(a, b)
	case '*':
		return value.Mul(a, b)
	case '/':
		return value.Div(a, b)
	default:
		return value.Mod(a, b)
	}
}

func (n *arithNode) eval(p *Program, sel []int32) (*Lanes, error) {
	l, err := n.l.eval(p, sel)
	if err != nil {
		return nil, err
	}
	r, err := n.r.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	out := &n.out
	if l.Const && r.Const {
		v, err := n.apply(l.ConstV, r.ConstV)
		if err != nil {
			return nil, err
		}
		return out.setConst(v, ln), nil
	}
	lk, rk := l.effKind(), r.effKind()
	if lk == value.KindNull || rk == value.KindNull {
		// NULL propagates before any numeric check.
		return out.setConst(value.Null, ln), nil
	}
	if !numericish(lk) || !numericish(rk) {
		// String or boxed lanes go through the row engine's operator one
		// by one: NULL lanes yield NULL, a non-numeric operand is its error.
		out.startPut(p.sc, ln)
		for i := 0; i < ln; i++ {
			v, err := n.apply(l.Value(i), r.Value(i))
			if err != nil {
				return nil, err
			}
			out.put(p.sc, i, v)
		}
		return out, nil
	}
	nulls, anyNull := nullLanes(p.sc, l, r, ln, n.nulls)
	n.nulls = nulls
	switch n.op {
	case '%':
		n.li = intLanes(p.sc, l, ln, n.li)
		n.ri = intLanes(p.sc, r, ln, n.ri)
		li, ri := n.li, n.ri
		out.reset(p.sc, value.KindInt, ln)
		for i := 0; i < ln; i++ {
			if nulls[i] {
				out.Ints[i] = 0
				continue
			}
			if ri[i] == 0 {
				nulls[i] = true
				anyNull = true
				out.Ints[i] = 0
				continue
			}
			out.Ints[i] = li[i] % ri[i]
		}
	case '/':
		n.lf = floatLanes(p.sc, l, ln, n.lf)
		n.rf = floatLanes(p.sc, r, ln, n.rf)
		lf, rf := n.lf, n.rf
		out.reset(p.sc, value.KindFloat, ln)
		for i := 0; i < ln; i++ {
			if nulls[i] {
				out.Floats[i] = 0
				continue
			}
			if rf[i] == 0 {
				nulls[i] = true
				anyNull = true
				out.Floats[i] = 0
				continue
			}
			out.Floats[i] = lf[i] / rf[i]
		}
	default:
		if lk == value.KindFloat || rk == value.KindFloat {
			n.lf = floatLanes(p.sc, l, ln, n.lf)
			n.rf = floatLanes(p.sc, r, ln, n.rf)
			lf, rf := n.lf, n.rf
			out.reset(p.sc, value.KindFloat, ln)
			switch n.op {
			case '+':
				for i := 0; i < ln; i++ {
					out.Floats[i] = lf[i] + rf[i]
				}
			case '-':
				for i := 0; i < ln; i++ {
					out.Floats[i] = lf[i] - rf[i]
				}
			case '*':
				for i := 0; i < ln; i++ {
					out.Floats[i] = lf[i] * rf[i]
				}
			}
		} else {
			n.li = rawIntLanes(p.sc, l, ln, n.li)
			n.ri = rawIntLanes(p.sc, r, ln, n.ri)
			li, ri := n.li, n.ri
			out.reset(p.sc, value.KindInt, ln)
			switch n.op {
			case '+':
				for i := 0; i < ln; i++ {
					out.Ints[i] = li[i] + ri[i]
				}
			case '-':
				for i := 0; i < ln; i++ {
					out.Ints[i] = li[i] - ri[i]
				}
			case '*':
				for i := 0; i < ln; i++ {
					out.Ints[i] = li[i] * ri[i]
				}
			}
		}
	}
	if anyNull {
		out.Nulls = nulls
	}
	return out, nil
}

type inNode struct {
	x      node
	ints   map[int64]struct{}
	fbit   map[uint64]struct{}
	strs   map[string]struct{}
	hasNaN bool
	neg    bool
	out    Lanes
}

// contains mirrors the row engine's Key()-based membership test for a
// non-NULL value.
func (n *inNode) contains(v value.V) bool {
	switch v.K {
	case value.KindBool, value.KindInt:
		_, in := n.ints[v.Int()]
		return in
	case value.KindFloat:
		if iv, ok := value.IntegralFloat(v.Float()); ok {
			_, in := n.ints[iv]
			return in
		}
		if math.IsNaN(v.Float()) {
			return n.hasNaN
		}
		_, in := n.fbit[math.Float64bits(v.Float())]
		return in
	case value.KindString:
		_, in := n.strs[v.S]
		return in
	default:
		return false
	}
}

func (n *inNode) eval(p *Program, sel []int32) (*Lanes, error) {
	x, err := n.x.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	if x.Const {
		if x.ConstV.IsNull() {
			return n.out.setConst(value.NewBool(false), ln), nil
		}
		return n.out.setConst(value.NewBool(n.contains(x.ConstV) != n.neg), ln), nil
	}
	out := &n.out
	out.reset(p.sc, value.KindBool, ln)
	for i := 0; i < ln; i++ {
		if x.isNull(i) {
			out.Ints[i] = 0
			continue
		}
		if n.contains(x.Value(i)) != n.neg {
			out.Ints[i] = 1
		} else {
			out.Ints[i] = 0
		}
	}
	return out, nil
}

type likeNode struct {
	x       node
	pattern string
	neg     bool
	out     Lanes
	match   []bool // lazily computed per dictionary entry
}

func (n *likeNode) eval(p *Program, sel []int32) (*Lanes, error) {
	x, err := n.x.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	if x.Const || x.Kind != value.KindString {
		// No dictionary to match per entry (a non-string column, boxed
		// lanes, a constant): NULL lanes are false, a non-string lane
		// raises the row engine's LIKE type error.
		out := &n.out
		out.reset(p.sc, value.KindBool, ln)
		for i := 0; i < ln; i++ {
			v := x.Value(i)
			switch {
			case v.IsNull():
				out.Ints[i] = 0
			case v.K != value.KindString:
				return nil, fmt.Errorf("expr: LIKE on %s value", v.K)
			case expr.LikeMatch(v.S, n.pattern) != n.neg:
				out.Ints[i] = 1
			default:
				out.Ints[i] = 0
			}
		}
		return out, nil
	}
	// The program is bound to one batch, so the column dictionary is
	// stable: match the pattern once per dictionary entry.
	if len(n.match) != len(x.Dict) {
		n.match = make([]bool, len(x.Dict))
		for di, s := range x.Dict {
			n.match[di] = expr.LikeMatch(s, n.pattern)
		}
	}
	out := &n.out
	out.reset(p.sc, value.KindBool, ln)
	for i := 0; i < ln; i++ {
		if x.isNull(i) {
			out.Ints[i] = 0
			continue
		}
		if n.match[x.Codes[i]] != n.neg {
			out.Ints[i] = 1
		} else {
			out.Ints[i] = 0
		}
	}
	return out, nil
}

type betweenNode struct {
	x, lo, hi node
	neg       bool
	out       Lanes
}

func (n *betweenNode) eval(p *Program, sel []int32) (*Lanes, error) {
	x, err := n.x.eval(p, sel)
	if err != nil {
		return nil, err
	}
	lo, err := n.lo.eval(p, sel)
	if err != nil {
		return nil, err
	}
	hi, err := n.hi.eval(p, sel)
	if err != nil {
		return nil, err
	}
	ln := len(sel)
	out := &n.out
	if x.Const && lo.Const && hi.Const {
		v, err := betweenOne(x.ConstV, lo.ConstV, hi.ConstV, n.neg)
		if err != nil {
			return nil, err
		}
		return out.setConst(v, ln), nil
	}
	out.reset(p.sc, value.KindBool, ln)
	for i := 0; i < ln; i++ {
		v, err := betweenOne(x.Value(i), lo.Value(i), hi.Value(i), n.neg)
		if err != nil {
			return nil, err
		}
		out.Ints[i] = v.Int()
	}
	return out, nil
}

func betweenOne(xv, lov, hiv value.V, neg bool) (value.V, error) {
	if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
		return value.NewBool(false), nil
	}
	c1, err := value.Compare(lov, xv)
	if err != nil {
		return value.Null, err
	}
	c2, err := value.Compare(xv, hiv)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool((c1 <= 0 && c2 <= 0) != neg), nil
}
