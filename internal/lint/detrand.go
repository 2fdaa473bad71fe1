package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRand enforces determinism in files tagged //lint:deterministic: the
// aggregate-state encoders (internal/agg), the local GMDJ evaluator
// (internal/gmdj), and the retry/backoff paths. Three constructions break
// reproducibility there:
//
//   - time.Now: wall-clock reads make output (or retry schedules) differ
//     run to run; inject a clock or take timestamps as arguments.
//   - the global math/rand source (rand.Intn, rand.Float64, ...): the
//     process-wide source cannot be seeded per component, so chaos tests
//     and backoff sequences stop being reproducible. Use
//     rand.New(rand.NewSource(seed)) with an injected seed, as the
//     Reconnector does.
//   - ranging over a map while appending to an outer slice or writing to
//     an outer Builder/Buffer (directly or through fmt.Fprint*): map
//     iteration order is randomized, so the produced sequence differs run
//     to run — which turns wire encodings, merged results and reports
//     nondeterministic. Sort the keys first.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbids time.Now, the global math/rand source, and map-iteration-order " +
		"dependent output in files tagged //lint:deterministic",
	Run: runDetRand,
}

func runDetRand(pass *Pass) error {
	for _, file := range pass.Files {
		if !fileHasDirective(file, "deterministic") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOrder(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDetCall flags time.Now and global math/rand source calls.
func checkDetCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on a seeded *rand.Rand are the
	// sanctioned pattern, so x.Intn(...) with x a *rand.Rand is fine.
	if _, isPkg := pass.TypesInfo.Uses[firstIdent(sel.X)].(*types.PkgName); !isPkg {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(call, "time.Now in a deterministic file; inject a clock "+
				"or take the timestamp as an argument")
		}
	case "math/rand", "math/rand/v2":
		switch obj.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return // constructing a seeded source is the sanctioned pattern
		}
		pass.Reportf(call, "global math/rand source (rand.%s) in a deterministic file; "+
			"use rand.New(rand.NewSource(seed)) with an injected seed", obj.Name())
	}
}

// firstIdent returns the identifier at the root of a selector base, or nil.
func firstIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkMapRangeOrder flags map-range loops whose body emits into ordered
// sinks declared outside the loop.
func checkMapRangeOrder(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// append(outer, ...) — the classic nondeterministic flattening.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if obj, ok := pass.TypesInfo.Uses[firstIdent(call.Args[0])]; ok && declaredOutside(obj, rs) {
				pass.Reportf(call, "append to %s while ranging over a map: iteration "+
					"order is randomized, so the slice order differs run to run; sort the keys first",
					obj.Name())
			}
			return true
		}
		// builder.WriteString(...) / buffer.Write(...), and fmt.Fprint*(&b,
		// ...) with b the builder or buffer, on an outer sink.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var sink ast.Expr
		switch fn := pass.TypesInfo.Uses[sel.Sel]; {
		case isWriteMethod(sel.Sel.Name):
			sink = sel.X
		case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint"):
			sink = call.Args[0]
			if u, ok := sink.(*ast.UnaryExpr); ok && u.Op == token.AND {
				sink = u.X
			}
		default:
			return true
		}
		if obj, ok := pass.TypesInfo.Uses[firstIdent(sink)]; ok && declaredOutside(obj, rs) && isOrderedSink(obj.Type()) {
			pass.Reportf(call, "writing to %s while ranging over a map: iteration "+
				"order is randomized, so the output differs run to run; sort the keys first",
				obj.Name())
		}
		return true
	})
}

// declaredOutside reports whether obj's declaration precedes (or follows)
// the range statement, i.e. the object outlives one iteration.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// isWriteMethod matches the ordered-output methods of builders/buffers.
func isWriteMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// isOrderedSink reports whether t is strings.Builder or bytes.Buffer
// (possibly behind a pointer).
func isOrderedSink(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
