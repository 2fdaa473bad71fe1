package vec

//lint:deterministic vectorized evaluation must match the row engine byte for byte

import (
	"repro/internal/expr"
	"repro/internal/relation"
)

// caseNode evaluates a searched CASE lazily, arm by arm: an arm's condition
// runs over the lanes no earlier arm decided, its THEN over the lanes the
// condition picked and ELSE over what is left, each result scattered to
// its lanes' positions in the output. A lane reaches exactly the
// subexpressions the row evaluator would send it to, so an arm that would
// fail (abs of a string, arithmetic on a string) raises only when some lane
// gets there. coalesce is the same node: its arms have no condition and
// decide the lanes where their own value is not NULL.
type caseNode struct {
	arms []caseArm
	els  node // nil: lanes no arm decides stay NULL
	out  Lanes
	// The undecided batch lanes with their output positions, and the
	// lanes the current arm picked with theirs.
	und, upos, take, tpos []int32
}

type caseArm struct {
	cond node // nil for a coalesce argument
	then node
}

func (n *caseNode) eval(p *Program, sel []int32) (*Lanes, error) {
	n.out.startPut(p.sc, len(sel))
	n.und = append(n.und[:0], sel...)
	n.upos = n.upos[:0]
	for i := range sel {
		n.upos = append(n.upos, int32(i))
	}
	for _, a := range n.arms {
		if len(n.und) == 0 {
			break
		}
		test := a.cond
		if test == nil {
			test = a.then
		}
		t, err := test.eval(p, n.und)
		if err != nil {
			return nil, err
		}
		n.take, n.tpos = n.take[:0], n.tpos[:0]
		k := 0
		for j, lane := range n.und {
			at := n.upos[j]
			switch {
			case a.cond == nil && !t.isNull(j):
				n.out.put(p.sc, int(at), t.Value(j))
			case a.cond != nil && t.truthy(j):
				n.take, n.tpos = append(n.take, lane), append(n.tpos, at)
			default:
				n.und[k], n.upos[k] = lane, at
				k++
			}
		}
		n.und, n.upos = n.und[:k], n.upos[:k]
		if err := n.branch(p, a.then, n.take, n.tpos); err != nil {
			return nil, err
		}
	}
	if n.els != nil {
		if err := n.branch(p, n.els, n.und, n.upos); err != nil {
			return nil, err
		}
	}
	return &n.out, nil
}

// branch evaluates x over the lanes that reach it — not at all when none
// do — and scatters the result to their output positions.
func (n *caseNode) branch(p *Program, x node, sel, pos []int32) error {
	if len(sel) == 0 {
		return nil
	}
	v, err := x.eval(p, sel)
	if err != nil {
		return err
	}
	for j, at := range pos {
		n.out.put(p.sc, int(at), v.Value(j))
	}
	return nil
}

// callNode evaluates abs, least and greatest: strict functions, so every
// argument is evaluated over every lane and the call itself runs lane by
// lane through the row binder's own body (compile bound it over a row of
// the arguments), which makes value semantics and errors the row engine's
// by construction.
type callNode struct {
	args []node
	body *expr.Bound
	vals []*Lanes
	row  relation.Row // the current lane's argument values
	out  Lanes
}

func (n *callNode) eval(p *Program, sel []int32) (*Lanes, error) {
	for k, a := range n.args {
		v, err := a.eval(p, sel)
		if err != nil {
			return nil, err
		}
		n.vals[k] = v
	}
	n.out.startPut(p.sc, len(sel))
	for i := range sel {
		for k, v := range n.vals {
			n.row[k] = v.Value(i)
		}
		v, err := n.body.Eval(nil, n.row)
		if err != nil {
			return nil, err
		}
		n.out.put(p.sc, i, v)
	}
	return &n.out, nil
}
