package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	testLoader *Loader
	loaderErr  error
)

// sharedLoader builds one loader with the module's dependency closure
// available, shared across analyzer tests (export-data discovery shells
// out to `go list` once).
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		testLoader = NewLoader()
		loaderErr = testLoader.LoadDeps()
	})
	if loaderErr != nil {
		t.Fatalf("loading dependency closure: %v", loaderErr)
	}
	return testLoader
}

// runTestdata asserts an analyzer against its annotated testdata package.
func runTestdata(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	res, err := RunAnalyzerTest(sharedLoader(t), dir, analyzers...)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, d := range res.Unexpected {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range res.Unmatched {
		t.Errorf("unmatched expectation: %s", w)
	}
}

func TestCtxFlow(t *testing.T)   { runTestdata(t, "testdata/src/ctxflow", CtxFlow) }
func TestDetRand(t *testing.T)   { runTestdata(t, "testdata/src/detrand", DetRand) }
func TestErrFlow(t *testing.T)   { runTestdata(t, "testdata/src/errflow", ErrFlow) }
func TestLockGuard(t *testing.T) { runTestdata(t, "testdata/src/lockguard", LockGuard) }
func TestLockOrder(t *testing.T) { runTestdata(t, "testdata/src/lockorder", LockOrder) }
func TestGoLeak(t *testing.T)    { runTestdata(t, "testdata/src/goleak", GoLeak) }

// TestLockOrderStateIsolation asserts the per-run Begin state does not
// leak between invocations: the same cycle re-reported on a second run
// proves the graph was rebuilt, not remembered.
func TestLockOrderStateIsolation(t *testing.T) {
	for i := 0; i < 2; i++ {
		res, err := RunAnalyzerTest(sharedLoader(t), "testdata/src/lockorder", LockOrder)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Failed() {
			t.Errorf("run %d deviated: unexpected=%v unmatched=%v", i, res.Unexpected, res.Unmatched)
		}
	}
}

// TestSuppressionRequiresReason asserts the framework rejects bare
// //lint:ignore directives: a suppression without a justification is
// itself a finding.
func TestSuppressionRequiresReason(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore ctxflow
	_ = 1
	//lint:ignore
	_ = 2
	//lint:ignore ctxflow documented reason here
	_ = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup := CollectSuppressions(fset, []*ast.File{f})
	malformed := sup.Malformed()
	if len(malformed) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %v", len(malformed), malformed)
	}
	for _, d := range malformed {
		if d.Analyzer != "lint" || !strings.Contains(d.Message, "reason") {
			t.Errorf("malformed diagnostic %q does not demand a reason", d.Message)
		}
	}
	// The well-formed directive must suppress its own and the next line.
	ok := Diagnostic{Analyzer: "ctxflow", Pos: posOfLine(fset, f, 9)}
	if !sup.Suppressed(ok) {
		t.Errorf("well-formed directive did not suppress a same-analyzer diagnostic")
	}
	other := Diagnostic{Analyzer: "detrand", Pos: posOfLine(fset, f, 9)}
	if sup.Suppressed(other) {
		t.Errorf("directive for ctxflow suppressed a detrand diagnostic")
	}
}

// posOfLine returns some position on the given 1-based line of the file.
func posOfLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	tf := fset.File(f.Pos())
	return tf.LineStart(line)
}

// TestModuleClean runs the full suite over the whole module and requires
// zero findings — the same gate `go run ./cmd/skalla-lint ./...` enforces
// in CI. A finding here means either new code broke an invariant or a
// suppression lost its reason.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	l, pkgs := loadModule(t)
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d.String(l.Fset))
	}
}

// TestAnalyzerMetadata pins the suite's names, which LINT.md and
// //lint:ignore directives refer to.
func TestAnalyzerMetadata(t *testing.T) {
	want := []string{"ctxflow", "detrand", "errflow", "lockguard", "lockorder", "goleak"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
		if strings.ToLower(a.Name) != a.Name {
			t.Errorf("analyzer name %q must be lower-case", a.Name)
		}
	}
}
