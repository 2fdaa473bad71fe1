package agg

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// resetSpecs holds every primitive: PCount (COUNT(*) and COUNT(x)), PSum,
// PSumSq, PMin, PMax, PHLL and PSet.
func resetSpecs() []Spec {
	var specs []Spec
	for _, s := range []string{"count(*) AS n", "count(x) AS c", "sum(x) AS s", "var(x) AS v",
		"min(x) AS lo", "max(x) AS hi", "countd(x) AS d", "countdx(x) AS dx"} {
		specs = append(specs, MustParseSpec(s))
	}
	return specs
}

// dirty folds values into every group of s, per value and through the lane
// folds, so that every lane holds states: an INT sum that a FLOAT switches,
// extrema over INTs, FLOATs (NaN and −0 among them) and STRINGs, NULLs,
// sketches and sets. A value a state refuses leaves it as it was.
func dirty(s *Slab, salt int) {
	for g := 0; g < s.groups; g++ {
		for p := 0; p < s.Width(); p++ {
			switch (g + salt) % 3 {
			case 0:
				_ = s.AddInts(g, p, value.KindInt, []int64{int64(g), 7, -3}, nil)
				_ = s.Add(g, p, value.NewFloat(0.5))
			case 1:
				_ = s.Add(g, p, value.NewString(fmt.Sprint("s", g)))
				_ = s.Add(g, p, value.Null)
				_ = s.Add(g, p, value.NewString("zz"))
			case 2:
				_ = s.AddFloats(g, p, []float64{math.NaN(), math.Copysign(0, -1), float64(g) / 4}, nil)
				_ = s.Add(g, p, value.Null)
			}
		}
	}
}

// sameSlab fails unless got holds what want holds: the same layout, the
// same state in every slot, value by value, and the same frame of its
// lanes. Nothing past got's groups may hold a state either: no pointer
// slot up to the capacity of any lane it keeps, in use or not.
func sameSlab(t *testing.T, what string, got, want *Slab) {
	t.Helper()
	if got.groups != want.groups || got.Width() != want.Width() || len(got.Specs()) != len(want.Specs()) {
		t.Fatalf("%s: %d groups × %d primitives of %d specs, want %d × %d of %d", what,
			got.groups, got.Width(), len(got.Specs()), want.groups, want.Width(), len(want.Specs()))
	}
	for si := range want.Specs() {
		if lo, hi := got.SpecPrims(si); lo != want.off[si] || hi != want.off[si+1] {
			t.Fatalf("%s: spec %d has primitives [%d, %d), want [%d, %d)", what, si, lo, hi, want.off[si], want.off[si+1])
		}
	}
	for g := 0; g < want.groups; g++ {
		for p := 0; p < want.Width(); p++ {
			if v, w := got.Result(g, p), want.Result(g, p); !sameState(v, w) {
				t.Fatalf("%s: group %d primitive %d is %#v, want %#v", what, g, p, v, w)
			}
		}
	}
	var cols []relation.Column
	for _, sp := range want.Specs() {
		cols = append(cols, sp.SubColumns()...)
	}
	frame := func(s *Slab) []byte {
		lanes := make([]relation.LaneSource, s.Width())
		for p := range lanes {
			lanes[p] = s.Lane(p)
		}
		return relation.EncodeFrame(relation.MustSchema(cols...), s.groups, nil, lanes).Bytes()
	}
	if g, w := frame(got), frame(want); !bytes.Equal(g, w) {
		t.Fatalf("%s: the lanes frame as\n% x\nwant\n% x", what, g, w)
	}
	for p, l := range got.lanes[:cap(got.lanes)] {
		// The slots a lane in use holds past its length, and every slot of
		// a lane out of use.
		past := func(n int) int { return n }
		if p >= got.Width() {
			past = func(int) int { return 0 }
		}
		if slices.ContainsFunc(l.vals[past(len(l.vals)):cap(l.vals)], func(v value.V) bool { return v != value.Null }) ||
			slices.ContainsFunc(l.hlls[past(len(l.hlls)):cap(l.hlls)], func(h *hll) bool { return h != nil }) ||
			slices.ContainsFunc(l.sets[past(len(l.sets)):cap(l.sets)], func(m map[string]struct{}) bool { return m != nil }) {
			t.Fatalf("%s: lane %d keeps a state past the slab's use of it", what, p)
		}
	}
}

// TestSlabResetIsNewSlab: a slab reset after dirty states holds what
// NewSlab returns for the new specs and group count, for every primitive —
// the same specs over fewer and more groups, other primitives in every
// lane, fewer and more lanes, and none — and folding the same values into
// both afterwards gives the same states again. One slab reset through
// every shape in turn, and dirtied in each, must hold the same.
func TestSlabResetIsNewSlab(t *testing.T) {
	all := resetSpecs()
	other := slices.Clone(all)
	slices.Reverse(other)
	more := slices.Clone(all)
	for _, sp := range all {
		sp.As += "2"
		more = append(more, sp)
	}
	shapes := []struct {
		name   string
		specs  []Spec
		groups int
	}{
		{"same", all, 40},
		{"fewer groups", all, 10},
		{"more groups", all, 100},
		{"other primitives", other, 40},
		{"fewer lanes", all[2:5], 40},
		{"more lanes", more, 40},
		{"no primitives", nil, 5},
		{"no groups", all, 0},
	}
	reused := NewSlab(all, 40)
	dirty(reused, 0)
	for p := 0; p < reused.Width(); p++ {
		empty := true
		for g := 0; g < reused.groups && empty; g++ {
			empty = sameState(reused.Result(g, p), NewSlab(all, 1).Result(0, p))
		}
		if empty {
			t.Fatalf("dirty leaves primitive %d empty in every group", p)
		}
	}
	for i, sh := range shapes {
		s := NewSlab(all, 40)
		dirty(s, 0)
		s.Reset(sh.specs, sh.groups)
		want := NewSlab(sh.specs, sh.groups)
		sameSlab(t, sh.name+", reset", s, want)
		dirty(s, 1)
		dirty(want, 1)
		sameSlab(t, sh.name+", reset and folded", s, want)

		dirty(reused, i)
		reused.Reset(sh.specs, sh.groups)
		sameSlab(t, sh.name+", reset in turn", reused, NewSlab(sh.specs, sh.groups))
	}
}
