package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// ErrFlow enforces inspectable error chains in files tagged
// //lint:wrap-errors — the transport and coordinator layers, where
// failover policy hinges on errors.Is/errors.As: the retry and replica
// layers must distinguish context cancellation (stop retrying) from
// transport faults (retry at one replica, then fail over to the next),
// and the coordinator must recognize context.Canceled to avoid shadowing
// a root cause with sibling-cancellation fallout. A fmt.Errorf that formats an error argument with
// %v or %s flattens it to text, so errors.Is sees nothing: every such
// call must wrap at least one error with %w (annotating secondary errors
// with %v next to a %w is fine) or return an explicit sentinel instead.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "requires fmt.Errorf calls that format an error argument to wrap one " +
		"with %w in files tagged //lint:wrap-errors, keeping errors.Is/As working " +
		"across package boundaries",
	Run: runErrFlow,
}

func runErrFlow(pass *Pass) error {
	for _, file := range pass.Files {
		if !fileHasDirective(file, "wrap-errors") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkErrorfChain(pass, call)
			return true
		})
	}
	return nil
}

// checkErrorfChain flags fmt.Errorf calls that take error arguments but
// wrap none of them.
func checkErrorfChain(pass *Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := constantString(pass, call.Args[0])
	if !ok {
		return // dynamic format string: out of scope
	}
	verbs := formatVerbs(format)
	args := call.Args[1:]
	if len(verbs) != len(args) {
		return // malformed call; go vet reports arity problems
	}
	errArgs := 0
	wrapped := false
	for i, arg := range args {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil || !isErrorType(t) {
			continue
		}
		errArgs++
		if verbs[i] == 'w' {
			wrapped = true
		}
	}
	if errArgs > 0 && !wrapped {
		pass.Reportf(call, "fmt.Errorf flattens its error argument to text; wrap it "+
			"with %%w (or return a sentinel) so errors.Is/As keep working for "+
			"failover and cancellation checks")
	}
}

// isPkgFunc reports whether call invokes pkgPath.name at package level.
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// constantString extracts a compile-time constant string value.
func constantString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

// errorInterface is the universe error type's underlying interface.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// formatVerbs returns one verb letter per argument-consuming verb in the
// format string, in order. Width/precision stars and explicit argument
// indexes are rare in this codebase and punted on: calls using them are
// skipped by the arity check in the caller.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Skip flags, width, precision.
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // %% literal
			}
			if (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '#' || c == ' ' || c == '.' {
				i++
				continue
			}
			break
		}
		if i >= len(format) || format[i] == '%' {
			continue
		}
		if format[i] == '*' || format[i] == '[' {
			// Star width or explicit index: bail via an impossible marker
			// so the caller's arity check skips the call.
			return nil
		}
		verbs = append(verbs, format[i])
	}
	return verbs
}
