package lint

import (
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce   sync.Once
	moduleLoader *Loader
	modulePkgs   []*Package
	moduleErr    error
)

// loadModule type-checks the module's non-test files once for the tests
// that read the whole program.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	moduleOnce.Do(func() {
		moduleLoader = NewLoader()
		modulePkgs, moduleErr = moduleLoader.Load("./...")
	})
	if moduleErr != nil {
		t.Fatalf("load: %v", moduleErr)
	}
	return moduleLoader, modulePkgs
}

// testDrivers are the exported functions and methods of internal/...
// that no program code calls and that stay anyway: tests drive the
// program through them. Every other export needs a caller outside
// _test.go files; tests check the program through what it publishes
// (obs counters and events, RoundStats, replies).
var testDrivers = map[string]string{
	"expr.MustParse":                 "builds test expressions from text; a program parses user input with Parse and handles its error",
	"expr.C":                         "builds a literal constant operand for hand-written test expressions",
	"expr.DomainRange":               "builds an interval domain for catalog and pruning tests",
	"expr.Equal":                     "compares expression trees structurally in parser and rewrite tests",
	"expr.Domain.Empty":              "asks whether a derived domain admits no value, in the pruning tests",
	"value.Parse":                    "builds typed test values from literals",
	"value.Equal":                    "compares values with NULL = NULL in tests",
	"vec.Batch.Select":               "the checked constructor of a selection; the kernels build theirs unchecked",
	"transport.NewHedger":            "builds a hedger with a fixed delay over hand-made clients; the program builds hedgers only inside NewSite",
	"transport.NewChaos":             "builds an empty fault schedule for a test to arm",
	"transport.Chaos.SetTailLatency": "arms a seeded straggler schedule, the tail benchmark's heavy-tail latency",
	"transport.Chaos.Inject":         "queues a scripted fault",
	"transport.Chaos.InjectAt":       "schedules a fault at the nth call of an op",
	"transport.Chaos.Calls":          "counts the calls a fault schedule saw, to check a scenario reached its fault",
	"transport.Chaos.Injected":       "counts the faults a schedule applied, to check a scenario reached its fault",
	"obs.Tracer.SetNow":              "sets the clock spans are timed by, so trace tests read fixed timestamps",
	"obs.Registry.CounterValue":      "reads a published counter without creating it, so a test can check the program counted an event",
}

// errorsCalls are the methods errors.Is, errors.As and errors.Unwrap call
// on an error through interfaces declared inside those functions, which
// no package scope holds.
var errorsCalls = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// TestNoTestOnlyExports fails on an exported function or method of an
// internal/... package (lint and testutil aside) that no non-test file
// references and that testDrivers does not name. A method that
// satisfies an interface of the program or of a package it imports
// counts as used.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	_, pkgs := loadModule(t)
	unused := testOnlyExports(pkgs)
	for _, name := range unused {
		if _, ok := testDrivers[name]; !ok {
			t.Errorf("%s has no caller outside _test.go files: delete it, or add it to testDrivers with the reason tests drive the program through it", name)
		}
	}
	for name, reason := range testDrivers {
		if reason == "" {
			t.Errorf("testDrivers[%q] gives no reason", name)
		}
		if i := sort.SearchStrings(unused, name); i == len(unused) || unused[i] != name {
			t.Errorf("testDrivers names %s, which is gone or now has a program caller: drop the entry", name)
		}
	}
}

// testOnlyExports lists, sorted, the exported functions and methods of
// the internal packages under check that nothing in pkgs references, as
// "pkg.Func" or "pkg.Type.Method".
func testOnlyExports(pkgs []*Package) []string {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		walk(p.Types)
	}
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	satisfies := func(named *types.Named, method string) bool {
		if errorsCalls[method] && (types.Implements(named, errorType) || types.Implements(types.NewPointer(named), errorType)) {
			return true
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}
	var out []string
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p.Path, "repro/internal/")
		if !ok || rel == "lint" || rel == "testutil" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, p.Types.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfies(named, m.Name()) {
						out = append(out, p.Types.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
