package skalla

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/agg"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/value"
)

// This file implements the OLAP query classes the paper's introduction
// names beyond plain grouping — data cubes [Gray et al.] and the unpivot
// operator [Graefe et al.] — on top of distributed GMDJ evaluation.
//
// Cube runs a single distributed query at the finest granularity that
// computes the distributive primitives of every requested aggregate, then
// rolls the remaining 2^d - 1 cuboids up at the client by merging
// primitive states (the classic compute-the-cube-from-the-base-cuboid
// strategy of Agarwal et al., made possible here because every aggregate
// decomposes per Theorem 1). Only one round trip over the warehouse is
// needed regardless of the number of cuboids, and the Theorem 2 traffic
// bound applies to the finest cuboid.

// CubeAll is the value marking "all" (rolled-up) dimensions in cube
// output rows. It is SQL's NULL from CUBE BY.
var CubeAll = value.Null

// Cube computes the full data cube over the given dimensions: one output
// row per (grouping set, group), with rolled-up dimensions set to
// CubeAll. Aggregates may be any of count/sum/avg/min/max/var/stddev
// (countd's sketch state is not client-mergeable through the public API).
func Cube(cluster *Cluster, detail string, dims []string, aggs AggList, opts Options) (*Relation, error) {
	sets, err := cubeSets(dims)
	if err != nil {
		return nil, err
	}
	return GroupingSets(cluster, detail, dims, sets, aggs, opts)
}

// Rollup computes the ROLLUP of the dimensions: the grouping sets are the
// prefixes (a,b,c), (a,b), (a), () — the classic hierarchy drill-up.
func Rollup(cluster *Cluster, detail string, dims []string, aggs AggList, opts Options) (*Relation, error) {
	sets, err := rollupSets(dims)
	if err != nil {
		return nil, err
	}
	return GroupingSets(cluster, detail, dims, sets, aggs, opts)
}

// cubeSets returns the 2^d grouping sets of a cube over dims, set i
// holding the dimensions whose bit is set in i. It refuses an empty or an
// oversized cube.
func cubeSets(dims []string) ([][]string, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("skalla: cube needs at least one dimension")
	}
	if len(dims) > 12 {
		return nil, fmt.Errorf("skalla: cube over %d dimensions (2^%d cuboids) refused", len(dims), len(dims))
	}
	sets := make([][]string, 0, 1<<len(dims))
	for mask := 0; mask < 1<<len(dims); mask++ {
		var set []string
		for di := range dims {
			if mask&(1<<di) != 0 {
				set = append(set, dims[di])
			}
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// rollupSets returns the prefixes of dims, longest first.
func rollupSets(dims []string) ([][]string, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("skalla: rollup needs at least one dimension")
	}
	sets := make([][]string, 0, len(dims)+1)
	for n := len(dims); n >= 0; n-- {
		sets = append(sets, append([]string(nil), dims[:n]...))
	}
	return sets, nil
}

// GroupingSets computes the given grouping sets (each a subset of dims)
// in a single distributed round trip: the finest cuboid over all of dims
// ships the mergeable primitives of every aggregate (Theorem 1), and each
// requested set rolls up client-side. Rolled-up dimensions are CubeAll.
func GroupingSets(cluster *Cluster, detail string, dims []string, sets [][]string, aggs AggList, opts Options) (*Relation, error) {
	return groupingSets(context.Background(), cluster, detail, dims, sets, aggs, nil, opts)
}

// groupingSets is GroupingSets with an optional detail-row filter (used
// by the SQL front-end's WHERE on CUBE BY / ROLLUP BY statements) under a
// caller context.
func groupingSets(ctx context.Context, cluster *Cluster, detail string, dims []string, sets [][]string, aggs AggList, where expr.Expr, opts Options) (*Relation, error) {
	if len(dims) == 0 || len(sets) == 0 {
		return nil, fmt.Errorf("skalla: grouping sets need dimensions and at least one set")
	}
	dimPos := map[string]int{}
	for i, d := range dims {
		dimPos[strings.ToLower(d)] = i
	}
	masks := make([]int, len(sets))
	for si, set := range sets {
		for _, col := range set {
			di, ok := dimPos[strings.ToLower(col)]
			if !ok {
				return nil, fmt.Errorf("skalla: grouping set column %q is not a dimension", col)
			}
			masks[si] |= 1 << di
		}
	}
	for _, a := range aggs {
		if a.Func == agg.CountD {
			return nil, fmt.Errorf("skalla: grouping sets do not support countd (%s)", a)
		}
	}

	// One distributed query at the finest granularity, carrying primitive
	// aggregates.
	primSpecs, err := primQuerySpecs(aggs)
	if err != nil {
		return nil, err
	}
	q, err := GroupBy(dims, primSpecs)
	if err != nil {
		return nil, err
	}
	if where != nil {
		// The filter restricts both which groups exist and which detail
		// rows aggregate, exactly like WHERE under GROUP BY.
		q.Base.Where = where
		for i := range q.MDs {
			for j := range q.MDs[i].Thetas {
				q.MDs[i].Thetas[j] = expr.And(q.MDs[i].Thetas[j], where)
			}
		}
	}
	res, err := cluster.QueryContext(ctx, q, detail, opts)
	if err != nil {
		return nil, fmt.Errorf("skalla: base cuboid: %w", err)
	}
	base, err := res.whole()
	if err != nil {
		return nil, fmt.Errorf("skalla: base cuboid: %w", err)
	}

	// Output schema: dimensions plus finalized aggregate columns.
	outCols := make([]relation.Column, 0, len(dims)+len(aggs))
	for _, d := range dims {
		i, err := base.Schema.MustLookup(d)
		if err != nil {
			return nil, err
		}
		outCols = append(outCols, base.Schema.Cols[i])
	}
	for _, a := range aggs {
		outCols = append(outCols, a.OutColumn())
	}
	outSchema, err := relation.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)

	dimIdx := make([]int, len(dims))
	for i, d := range dims {
		dimIdx[i], _ = base.Schema.Lookup(d)
	}
	var primCols []int // base columns of every aggregate's primitives, in slab order
	for ai, a := range aggs {
		for pi := range a.Prims() {
			p, err := base.Schema.MustLookup(cubePrimName(ai, pi))
			if err != nil {
				return nil, err
			}
			primCols = append(primCols, p)
		}
	}

	for _, mask := range masks {
		if err := rollupInto(out, base, mask, dims, dimIdx, aggs, primCols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rollupInto merges the finest cuboid down to one grouping set (given as
// a dimension bitmask) and appends the resulting rows to out, ordered by
// their dimension keys.
func rollupInto(out, base *Relation, mask int, dims []string, dimIdx []int, aggs AggList, primCols []int) error {
	var setIdx []int // positions in base of the set's dimensions
	for di := range dims {
		if mask&(1<<di) != 0 {
			setIdx = append(setIdx, dimIdx[di])
		}
	}
	accs := agg.NewSlab(aggs, 0)
	var index relation.KeyIndex
	var reprs []relation.Row // each group's first row
	var row relation.Row
	sameKey := func(g int) bool { return relation.KeysEqual(row, setIdx, reprs[g], setIdx) }
	for _, row = range base.Rows {
		hash := relation.HashRow(row, setIdx)
		g, ok := index.Find(hash, sameKey)
		if !ok {
			g = accs.AddGroup()
			index.Add(hash, g)
			reprs = append(reprs, row)
		}
		for p, c := range primCols {
			if err := accs.Merge(g, p, row[c]); err != nil {
				return fmt.Errorf("skalla: rollup: %w", err)
			}
		}
	}
	keys := make([]string, len(reprs))
	order := make([]int, len(reprs))
	for g, repr := range reprs {
		var kb strings.Builder
		for di := range dims {
			if mask&(1<<di) != 0 {
				kb.WriteString(repr[dimIdx[di]].Key())
			}
			kb.WriteByte('\x1f')
		}
		keys[g], order[g] = kb.String(), g
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	for _, g := range order {
		nr := make(relation.Row, 0, out.Schema.Len())
		for di := range dims {
			if mask&(1<<di) != 0 {
				nr = append(nr, reprs[g][dimIdx[di]])
			} else {
				nr = append(nr, CubeAll)
			}
		}
		for ai, a := range aggs {
			v, err := accs.Finalize(g, ai)
			if err != nil {
				return fmt.Errorf("skalla: rollup finalize %s: %w", a.As, err)
			}
			nr = append(nr, v)
		}
		out.Rows = append(out.Rows, nr)
	}
	return nil
}

// cubePrimName names the shipped primitive column for aggregate ai's
// pi'th primitive in the finest cuboid query.
func cubePrimName(ai, pi int) string { return fmt.Sprintf("__cube_a%d_p%d", ai, pi) }

// primQuerySpecs rewrites the requested aggregates into the primitive
// aggregates the finest cuboid must carry so every coarser cuboid can be
// computed by merging: count→count, sum→sum, avg→(sum,count),
// var/stddev→(count,sum,sum of squares), min/max→themselves.
func primQuerySpecs(aggs AggList) (AggList, error) {
	var out AggList
	for ai, a := range aggs {
		for pi, prim := range a.Prims() {
			spec := agg.Spec{As: cubePrimName(ai, pi)}
			switch prim {
			case agg.PCount:
				spec.Func = agg.Count
				spec.Arg = a.Arg // count(*) keeps nil arg
			case agg.PSum:
				spec.Func = agg.Sum
				spec.Arg = a.Arg
			case agg.PSumSq:
				spec.Func = agg.Sum
				spec.Arg = expr.Binary{Op: "*", L: a.Arg, R: a.Arg}
			case agg.PMin:
				spec.Func = agg.Min
				spec.Arg = a.Arg
			case agg.PMax:
				spec.Func = agg.Max
				spec.Arg = a.Arg
			default:
				return nil, fmt.Errorf("skalla: cube cannot carry primitive %d of %s", prim, a)
			}
			out = append(out, spec)
		}
	}
	return out, nil
}

// Unpivot rotates the named value columns of a relation into
// (attribute, value) rows: each input row yields one output row per value
// column, carrying the key columns, the column's name in attrCol, and its
// value in valCol. This is the unpivot operator of Graefe et al., used to
// extract marginal distributions; it runs at the client on (small)
// base-result structures.
func Unpivot(rel *Relation, keyCols, valueCols []string, attrCol, valCol string) (*Relation, error) {
	if len(valueCols) == 0 {
		return nil, fmt.Errorf("skalla: unpivot needs value columns")
	}
	keySchema, keyIdx, err := rel.Schema.Project(keyCols)
	if err != nil {
		return nil, err
	}
	valIdx := make([]int, len(valueCols))
	for i, c := range valueCols {
		p, err := rel.Schema.MustLookup(c)
		if err != nil {
			return nil, err
		}
		valIdx[i] = p
	}
	cols := append([]relation.Column(nil), keySchema.Cols...)
	cols = append(cols,
		relation.Column{Name: attrCol, Kind: value.KindString},
		relation.Column{Name: valCol, Kind: value.KindFloat},
	)
	outSchema, err := relation.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	out := relation.New(outSchema)
	for _, row := range rel.Rows {
		for vi, p := range valIdx {
			nr := make(relation.Row, 0, outSchema.Len())
			for _, k := range keyIdx {
				nr = append(nr, row[k])
			}
			nr = append(nr, value.NewString(rel.Schema.Cols[valIdx[vi]].Name), row[p])
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}
