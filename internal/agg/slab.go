package agg

//lint:deterministic lane folds must give the states per-value Add gives, in the same order

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/relation"
	"repro/internal/value"
)

// Slab holds the primitive states of a whole evaluation — groups × the
// flattened primitives of a spec list — as one lane per primitive: a typed
// array with one slot per group, laid out so that its zero value is the
// empty state. NewSlab and AddGroup therefore only allocate zeroed memory,
// and the count and sum lanes hold no pointers. The row engine, the
// vectorized engine, the coordinator's synchronization and the client-side
// rollup all keep their state in one.
//
// The same lanes serve both roles of Theorem 1: Add and the lane folds
// (AddInts, AddFloats, ...) fold detail values at a site
// (sub-aggregation), Merge folds shipped primitive states at the
// coordinator (super-aggregation). Primitives are addressed by their
// flattened index p, in spec then Prims() order: the order of the shipped
// sub-result columns. Distinct groups may be written concurrently.
type Slab struct {
	specs  []Spec
	lanes  []lane
	off    []int // off[si] is spec si's first primitive; off[len(specs)] the width
	groups int   // counted: a spec list may have no primitives
}

// Sum-lane flags, a whole byte per group: kernel workers write disjoint
// ranges of groups whose boundaries need not fall on a multiple of 8, so a
// packed bitmap would be a shared word written by two workers.
const (
	sumSeen  uint8 = 1 << iota // a value was folded in
	sumFloat                   // a non-integer was folded in: floats holds the state
)

// lane is one primitive's state for every group; only the arrays its
// primitive uses are allocated.
type lane struct {
	prim   Prim
	star   bool                  // PCount of COUNT(*): rows count, NULLs included
	ints   []int64               // PCount's count; PSum's integer total while no float was seen, wrapped to int64
	carry  []int32               // PSum: the 2^64s the wrapped total is short of the true one
	floats []float64             // PSum, PSumSq
	flags  []uint8               // PSum, PSumSq
	vals   []value.V             // PMin, PMax: the extremum, KindNull until one is seen
	hlls   []*hll                // PHLL: nil until first use
	sets   []map[string]struct{} // PSet: nil until first use
}

// NewSlab returns a slab of empty states for groups groups.
func NewSlab(specs []Spec, groups int) *Slab {
	s := &Slab{off: make([]int, 0, len(specs)+1)}
	s.Reset(specs, groups)
	return s
}

// Reset makes s the slab NewSlab(specs, groups) returns, in the memory s
// holds: each lane keeps the arrays its new primitive uses where they hold
// groups slots, and a nil or too-small one is allocated. The first groups
// slots of a count or sum array are cleared; every slot an extremum, a
// sketch or a set held is cleared, in every lane, so no state of s's
// previous use survives the reset or is pinned by it. The arrays s keeps
// are those of the largest use it served.
func (s *Slab) Reset(specs []Spec, groups int) {
	for i := range s.lanes {
		l := &s.lanes[i]
		clear(l.vals)
		clear(l.hlls)
		clear(l.sets)
	}
	s.specs, s.groups = specs, groups
	s.off = append(s.off[:0], 0)
	for _, sp := range specs {
		s.off = append(s.off, s.off[len(s.off)-1]+len(sp.Prims()))
	}
	width := s.off[len(specs)]
	if width > cap(s.lanes) {
		s.lanes = append(s.lanes[:cap(s.lanes)], make([]lane, width-cap(s.lanes))...)
	}
	s.lanes = s.lanes[:width]
	for si, sp := range specs {
		for j, p := range sp.Prims() {
			s.lanes[s.off[si]+j].reset(p, sp.Star(), groups)
		}
	}
}

// reset empties the lane for n groups of primitive p. Its pointer arrays
// hold no state (Reset cleared every slot a state was written to), so they
// are only resliced.
func (l *lane) reset(p Prim, star bool, n int) {
	*l = lane{prim: p, star: star,
		ints: l.ints[:0], carry: l.carry[:0], floats: l.floats[:0], flags: l.flags[:0],
		vals: l.vals[:0], hlls: l.hlls[:0], sets: l.sets[:0]}
	switch p {
	case PCount:
		l.ints = zeroed(l.ints, n)
	case PSum:
		l.ints, l.carry, l.floats, l.flags = zeroed(l.ints, n), zeroed(l.carry, n), zeroed(l.floats, n), zeroed(l.flags, n)
	case PSumSq:
		l.floats, l.flags = zeroed(l.floats, n), zeroed(l.flags, n)
	case PMin, PMax:
		l.vals = slots(l.vals, n)
	case PHLL:
		l.hlls = slots(l.hlls, n)
	case PSet:
		l.sets = slots(l.sets, n)
	}
}

// slots returns a's first n slots, or a new array of n when a has fewer.
func slots[T any](a []T, n int) []T {
	if cap(a) < n {
		return make([]T, n)
	}
	return a[:n]
}

// zeroed is slots with the n slots cleared.
func zeroed[T any](a []T, n int) []T {
	a = slots(a, n)
	clear(a)
	return a
}

// grow appends n empty groups to every lane.
func (s *Slab) grow(n int) {
	for i := range s.lanes {
		l := &s.lanes[i]
		switch l.prim {
		case PCount:
			l.ints = extend(l.ints, n)
		case PSum:
			l.ints, l.carry, l.floats, l.flags = extend(l.ints, n), extend(l.carry, n), extend(l.floats, n), extend(l.flags, n)
		case PSumSq:
			l.floats, l.flags = extend(l.floats, n), extend(l.flags, n)
		case PMin, PMax:
			l.vals = extend(l.vals, n)
		case PHLL:
			l.hlls = extend(l.hlls, n)
		case PSet:
			l.sets = extend(l.sets, n)
		}
	}
	s.groups += n
}

// extend appends n zero values to s. A new lane is one make: the race
// detector's build would otherwise allocate the appended zeros twice.
func extend[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	return append(s, make([]T, n)...)
}

// Reserve makes room in every lane of an empty slab for n groups.
func (s *Slab) Reserve(n int) {
	if s.groups == 0 && n > 0 {
		s.grow(n)
		s.groups = 0
		for i := range s.lanes {
			l := &s.lanes[i]
			l.ints, l.carry, l.floats, l.flags = l.ints[:0], l.carry[:0], l.floats[:0], l.flags[:0]
			l.vals, l.hlls, l.sets = l.vals[:0], l.hlls[:0], l.sets[:0]
		}
	}
}

// AddGroup appends one group of empty states and returns its index.
func (s *Slab) AddGroup() int {
	s.grow(1)
	return s.groups - 1
}

// Specs returns the specs the slab holds the states of.
func (s *Slab) Specs() []Spec { return s.specs }

// Width returns the number of primitives per group.
func (s *Slab) Width() int { return len(s.lanes) }

// SpecPrims returns the primitives [lo, hi) of spec si (an index into the
// spec list the slab was built for), in its Prims() order.
func (s *Slab) SpecPrims(si int) (lo, hi int) { return s.off[si], s.off[si+1] }

// Add folds one detail value into primitive p of group g. NULLs are
// ignored except by COUNT(*).
func (s *Slab) Add(g, p int, v value.V) error {
	l := &s.lanes[p]
	if v.IsNull() && !(l.prim == PCount && l.star) {
		return nil
	}
	switch l.prim {
	case PCount:
		l.ints[g]++
	case PSum, PSumSq:
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("agg: sum over non-numeric value %s", v)
		}
		if l.prim == PSumSq {
			f *= f
		}
		l.sum(g, v, f)
	case PMin, PMax:
		return l.extremum(g, v)
	case PHLL:
		if l.hlls[g] == nil {
			l.hlls[g] = newHLL()
		}
		l.hlls[g].Add(v)
	case PSet:
		if l.sets[g] == nil {
			l.sets[g] = map[string]struct{}{}
		}
		l.sets[g][v.Key()] = struct{}{}
		return l.checkSet(g)
	default:
		return fmt.Errorf("agg: unknown primitive %d", l.prim)
	}
	return nil
}

// Merge folds a shipped state into primitive p of group g. A NULL state
// represents an empty group at some site and is a no-op.
func (s *Slab) Merge(g, p int, v value.V) error {
	if v.IsNull() {
		return nil
	}
	l := &s.lanes[p]
	switch l.prim {
	case PCount:
		i, err := v.AsInt()
		if err != nil {
			return fmt.Errorf("agg: merge count: %w", err)
		}
		l.ints[g] += i
	case PSum, PSumSq:
		if n, c, ok := wideSum(v); ok && l.prim == PSum {
			if l.flags[g]&sumFloat == 0 {
				l.addInt(g, n, c)
			}
			l.floats[g] += float64(c)*0x1p64 + float64(n)
			l.flags[g] |= sumSeen
			return nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return fmt.Errorf("agg: merge sum: %w", err)
		}
		l.sum(g, v, f)
	case PMin, PMax:
		return l.extremum(g, v)
	case PHLL:
		other, err := decodeHLL(v)
		if err != nil {
			return fmt.Errorf("agg: merge hll: %w", err)
		}
		if l.hlls[g] == nil {
			l.hlls[g] = other // freshly decoded, not shared
		} else {
			l.hlls[g].Merge(other)
		}
	case PSet:
		other, err := decodeSet(v)
		if err != nil {
			return fmt.Errorf("agg: merge set: %w", err)
		}
		if l.sets[g] == nil {
			l.sets[g] = other // freshly decoded, not shared
		} else {
			for k := range other {
				l.sets[g][k] = struct{}{}
			}
		}
		return l.checkSet(g)
	default:
		return fmt.Errorf("agg: unknown primitive %d", l.prim)
	}
	return nil
}

// errSumOverflow: an integer sum whose total does not fit int64. Its
// state ships exactly (wideSum); the sum fails where it is finalized
// rather than wrap.
var errSumOverflow = errors.New("agg: integer sum overflows int64")

// wideSum returns the integer sum state v holds when its total does not
// fit int64: a 12-byte STRING, the total's low 64 bits then its carry,
// little-endian.
func wideSum(v value.V) (n int64, c int32, ok bool) {
	if v.K != value.KindString || len(v.S) != 12 {
		return 0, 0, false
	}
	b := []byte(v.S)
	return int64(binary.LittleEndian.Uint64(b)), int32(binary.LittleEndian.Uint32(b[8:])), true
}

// addInt returns a+b wrapped to int64 and the 2^64s the wrap took off: 1
// past MaxInt64, −1 past MinInt64, 0 when a and b differ in sign or their
// sum shares it.
func addInt(a, b int64) (int64, int32) {
	s := a + b
	over := (a ^ s) & (b ^ s) >> 63 // −1 on a wrap, else 0
	return s, int32(over & (b>>63 | 1))
}

// sum folds v, whose (squared, for PSumSq) float value is f, into slot g.
// The integer total is kept while every value was an integer or a boolean,
// so an integer sum stays exact; the first other value switches the state
// to the float total. The integer total wraps and counts its wraps in
// carry, so whether it fits int64 depends on the values alone, not on
// their order or on how the sites split them.
func (l *lane) sum(g int, v value.V, f float64) {
	fl := l.flags[g] | sumSeen
	if l.prim == PSumSq || v.K != value.KindInt && v.K != value.KindBool {
		fl |= sumFloat
	}
	if fl&sumFloat == 0 {
		l.addInt(g, v.Int(), 0)
	}
	l.floats[g] += f
	l.flags[g] = fl
}

// addInt adds n + c·2^64 to group g's integer total.
func (l *lane) addInt(g int, n int64, c int32) {
	s, d := addInt(l.ints[g], n)
	l.ints[g], l.carry[g] = s, l.carry[g]+c+d
}

func (l *lane) extremum(g int, v value.V) error {
	cur := l.vals[g]
	if cur.IsNull() {
		l.vals[g] = v
		return nil
	}
	c, err := value.Compare(v, cur)
	if err != nil {
		return fmt.Errorf("agg: min/max over mixed types: %w", err)
	}
	if l.prim == PMin && c < 0 || l.prim == PMax && c > 0 {
		l.vals[g] = v
	}
	return nil
}

func (l *lane) checkSet(g int) error {
	if len(l.sets[g]) > maxExactDistinct {
		return fmt.Errorf("agg: exact distinct set exceeds %d values; use countd", maxExactDistinct)
	}
	return nil
}

// Result returns primitive p of group g as a shippable value. Empty states
// are NULL except PCount, which is 0.
func (s *Slab) Result(g, p int) value.V { return s.lanes[p].Value(g) }

// Lane returns primitive p's states, group g's as value g, as the lane of
// a frame: Result's values.
func (s *Slab) Lane(p int) relation.LaneSource { return &s.lanes[p] }

// Values sets dst[k] to Value(from+k) (relation.LaneSource). For kinds
// alone, a sketch or a set that holds something is an empty STRING: it is
// encoded only when its value is written.
func (l *lane) Values(dst []value.V, from int, kindsOnly bool) {
	for k := range dst {
		g := from + k
		if kindsOnly && (l.prim == PHLL && l.hlls[g] != nil || l.prim == PSet && l.sets[g] != nil) {
			dst[k] = value.NewString("")
		} else {
			dst[k] = l.Value(g)
		}
	}
}

// Value returns group g's state as a shippable value.
func (l *lane) Value(g int) value.V {
	switch l.prim {
	case PCount:
		return value.NewInt(l.ints[g])
	case PSum, PSumSq:
		switch fl := l.flags[g]; {
		case fl&sumSeen == 0:
			return value.Null
		case fl&sumFloat == 0 && l.carry[g] != 0:
			b := binary.LittleEndian.AppendUint64(make([]byte, 0, 12), uint64(l.ints[g]))
			return value.NewString(string(binary.LittleEndian.AppendUint32(b, uint32(l.carry[g]))))
		case fl&sumFloat == 0:
			return value.NewInt(l.ints[g])
		}
		return value.NewFloat(l.floats[g])
	case PMin, PMax:
		return l.vals[g]
	case PHLL:
		if h := l.hlls[g]; h != nil {
			return h.Encode()
		}
	case PSet:
		if set := l.sets[g]; set != nil {
			return encodeSet(set)
		}
	}
	return value.Null
}

// Finalize computes spec si's final value in group g from its states.
func (s *Slab) Finalize(g, si int) (value.V, error) {
	var buf [3]value.V // no spec has more primitives
	states := buf[:0]
	for p := s.off[si]; p < s.off[si+1]; p++ {
		v := s.Result(g, p)
		if _, _, wide := wideSum(v); wide && s.lanes[p].prim == PSum {
			return value.Null, errSumOverflow
		}
		states = append(states, v)
	}
	return s.specs[si].Finalize(states)
}

// The lane folds feed matched detail lanes to slot g column-wise instead of
// boxing every value for Add. Each folds in ascending index order with
// Add's exact arithmetic, so lane and per-value accumulation produce
// bit-identical states (float sums are order-sensitive). nulls, when
// non-nil, marks NULL lanes, which are skipped exactly as Add skips them.

// AddRows folds n COUNT(*) rows. It is only valid for a star-counting
// PCount; other primitives never see a nil argument.
func (s *Slab) AddRows(g, p, n int) error {
	l := &s.lanes[p]
	if l.prim != PCount || !l.star {
		return fmt.Errorf("agg: AddRows on non-star primitive %d", l.prim)
	}
	l.ints[g] += int64(n)
	return nil
}

// AddInts folds int64 lanes of the given kind (KindInt or KindBool).
func (s *Slab) AddInts(g, p int, kind value.Kind, vals []int64, nulls []bool) error {
	l := &s.lanes[p]
	box := value.NewInt
	if kind == value.KindBool {
		box = func(x int64) value.V { return value.NewBool(x != 0) }
	}
	switch l.prim {
	case PCount:
		l.ints[g] += l.count(len(vals), nulls)
	case PSum:
		// The integer total is kept only while no float was seen: a float
		// state ignores n and wrapped.
		n, f, fl := l.ints[g], l.floats[g], l.flags[g]
		var wrapped int64 // negative once the running total wrapped
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			s := n + v
			wrapped |= (n ^ s) & (v ^ s)
			n, f, fl = s, f+float64(v), fl|sumSeen
		}
		if fl&sumFloat == 0 {
			for i := 0; wrapped < 0 && i < len(vals); i++ { // rare: count the wraps
				if nulls == nil || !nulls[i] {
					l.addInt(g, vals[i], 0)
				}
			}
			l.ints[g] = n
		}
		l.floats[g], l.flags[g] = f, fl
	case PSumSq:
		f, fl := l.floats[g], l.flags[g]
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			x := float64(v)
			f += x * x
			fl |= sumSeen | sumFloat
		}
		l.floats[g], l.flags[g] = f, fl
	case PMin, PMax:
		if cur := l.vals[g]; cur.K == value.KindNull || cur.K == value.KindInt || cur.K == value.KindBool {
			foldExtremum(l, g, cur.Int(), vals, nulls, box)
			return nil
		}
		fallthrough
	default:
		return s.addBoxed(g, p, len(vals), nulls, func(i int) value.V { return box(vals[i]) })
	}
	return nil
}

// AddFloats folds float64 lanes.
func (s *Slab) AddFloats(g, p int, vals []float64, nulls []bool) error {
	l := &s.lanes[p]
	switch l.prim {
	case PCount:
		l.ints[g] += l.count(len(vals), nulls)
	case PSum, PSumSq:
		f, fl := l.floats[g], l.flags[g]
		for i, v := range vals {
			if nulls != nil && nulls[i] {
				continue
			}
			if l.prim == PSumSq {
				v *= v
			}
			f += v
			fl |= sumSeen | sumFloat
		}
		l.floats[g], l.flags[g] = f, fl
	case PMin, PMax:
		if cur := l.vals[g]; cur.K == value.KindNull || cur.K == value.KindFloat {
			foldExtremum(l, g, cur.Float(), vals, nulls, value.NewFloat)
			return nil
		}
		fallthrough
	default:
		return s.addBoxed(g, p, len(vals), nulls, func(i int) value.V { return value.NewFloat(vals[i]) })
	}
	return nil
}

// AddRepeat folds the same value n times. A broadcast scalar must still
// loop: repeated float addition is not multiplication.
func (s *Slab) AddRepeat(g, p int, v value.V, n int) error {
	for i := 0; i < n; i++ {
		if err := s.Add(g, p, v); err != nil {
			return err
		}
	}
	return nil
}

// foldExtremum folds a lane into min/max slot g by extremum's rule: a
// value replaces the state x (unless NULL) only when strictly less (MIN)
// or greater (MAX), so NaN neither replaces nor is replaced. Callers pass
// states Compare orders as it orders the lane; a changed one is boxed once.
func foldExtremum[T int64 | float64](l *lane, g int, x T, vals []T, nulls []bool, box func(T) value.V) {
	less, seen, changed := l.prim == PMin, !l.vals[g].IsNull(), false
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			continue
		}
		if !seen || less && v < x || !less && v > x {
			x, seen, changed = v, true, true
		}
	}
	if changed {
		l.vals[g] = box(x)
	}
}

// count returns how many of n lanes a PCount folds: all of them for
// COUNT(*), the non-NULL ones otherwise.
func (l *lane) count(n int, nulls []bool) int64 {
	if l.star || nulls == nil {
		return int64(n)
	}
	c := 0
	for _, null := range nulls[:n] {
		if !null {
			c++
		}
	}
	return int64(c)
}

// addBoxed is the per-lane fallback for sketches, sets and extrema the
// typed folds do not take: it boxes each non-NULL lane and defers to Add,
// preserving Add's exact semantics.
func (s *Slab) addBoxed(g, p, n int, nulls []bool, at func(i int) value.V) error {
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		if err := s.Add(g, p, at(i)); err != nil {
			return err
		}
	}
	return nil
}
