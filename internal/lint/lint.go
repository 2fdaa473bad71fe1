// Package lint is Skalla's first-party static-analysis suite. It enforces
// the correctness invariants PR 1 made load-bearing but that the compiler
// cannot see: context flow (cancellation and deadlines must thread through
// every site call), determinism (seeded randomness and order-stable output in packages whose
// results must reproduce), and error flow (errors crossing package
// boundaries must stay inspectable so failover can tell retryable from
// fatal).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built only on the standard library's
// go/ast and go/types, because this module carries no third-party
// dependencies. Packages load from source with export data for the
// standard library (see load.go); cmd/skalla-lint is the multichecker
// driver and LINT.md documents each rule.
//
// # Directives
//
// Analyzers are steered by magic comments:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//	    Suppresses matching diagnostics reported on the same line or the
//	    line directly below the directive. The reason is mandatory; a
//	    bare suppression is itself a diagnostic.
//	//lint:deterministic
//	    Tags the enclosing FILE as deterministic: detrand forbids
//	    time.Now, the global math/rand source, and map-iteration-order
//	    dependent output in it.
//	//lint:wrap-errors
//	    Tags the enclosing FILE for errflow: fmt.Errorf calls that
//	    format an error argument must wrap it with %w.
//	//lint:guarded-by <mu>
//	    On a struct field (or package-level variable) declaration: the
//	    field may only be accessed while the named mutex — a sibling
//	    field of the same struct, or a package-level mutex — is held.
//	    lockguard enforces it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// An Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by skalla-lint -list.
	Doc string
	// Run executes the analyzer on one package, reporting findings via
	// pass.Report. It returns an error only for analyzer malfunctions —
	// findings are diagnostics, not errors.
	Run func(pass *Pass) error
	// Begin, when set, is called once per RunAnalyzers invocation, before
	// any pass; the value it returns is available as Pass.State in every
	// subsequent pass of that run. Module-scoped analyzers (lockorder)
	// accumulate cross-package facts in it — packages arrive in
	// dependency order, so by the time a package is analyzed every
	// summary it can reach is already in the state.
	Begin func() any
}

// A Pass is one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's findings for the files.
	TypesInfo *types.Info
	// State is the per-run value produced by the analyzer's Begin hook
	// (nil when the analyzer has none). It is shared across every pass of
	// one RunAnalyzers invocation, never across invocations.
	State any

	diags []Diagnostic
}

// Report records a finding.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Reportf is Report anchored to a node.
func (p *Pass) Reportf(n ast.Node, format string, args ...any) {
	p.Report(n.Pos(), format, args...)
}

// A Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// String renders "file:line:col: [analyzer] message" under fset.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// directivePrefix introduces every lint directive comment.
const directivePrefix = "//lint:"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	file      string
	line      int
	analyzers []string
	reason    string
}

// matches reports whether the directive suppresses the given analyzer.
func (d *ignoreDirective) matches(analyzer string) bool {
	for _, a := range d.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// Suppressions indexes //lint:ignore directives across a set of files so
// diagnostics anywhere in the loaded program can be matched against them.
type Suppressions struct {
	fset *token.FileSet
	// byLine maps file -> line -> directives governing that line.
	byLine map[string]map[int][]*ignoreDirective
	// malformed are directives with no reason (or no analyzer list);
	// they are reported as diagnostics of the pseudo-analyzer "lint".
	malformed []Diagnostic
}

// CollectSuppressions scans the comments of files for ignore directives. A
// directive governs its own line and the line directly below it, so both
// end-of-line and line-above placement work:
//
//	x := risky() //lint:ignore detrand seeded in TestMain
//
//	//lint:ignore lockguard read before the value is shared
//	n := s.count
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLine: map[string]map[int][]*ignoreDirective{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix+"ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      c.Pos(),
						Message:  "malformed //lint:ignore: need an analyzer list and a non-empty reason",
					})
					continue
				}
				d := &ignoreDirective{
					pos:       c.Pos(),
					file:      pos.Filename,
					line:      pos.Line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
				}
				lines := s.byLine[d.file]
				if lines == nil {
					lines = map[int][]*ignoreDirective{}
					s.byLine[d.file] = lines
				}
				// Govern the directive's own line and the next one.
				lines[d.line] = append(lines[d.line], d)
				lines[d.line+1] = append(lines[d.line+1], d)
			}
		}
	}
	return s
}

// Suppressed reports whether d is covered by an ignore directive.
func (s *Suppressions) Suppressed(d Diagnostic) bool {
	pos := s.fset.Position(d.Pos)
	for _, dir := range s.byLine[pos.Filename][pos.Line] {
		if dir.matches(d.Analyzer) {
			return true
		}
	}
	return false
}

// Malformed returns diagnostics for directives missing their mandatory
// reason string.
func (s *Suppressions) Malformed() []Diagnostic { return s.malformed }

// fileHasDirective reports whether the file carries the given bare
// directive (e.g. "deterministic") in any of its comments.
func fileHasDirective(f *ast.File, name string) bool {
	want := directivePrefix + name
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if text == want || strings.HasPrefix(text, want+" ") {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers executes the analyzers over the packages and returns the
// surviving diagnostics: suppressed findings are dropped, malformed
// suppressions are added, and the result is sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersTimed(pkgs, analyzers)
	return diags, err
}

// A Timing records one analyzer's total wall-clock across all packages of
// one run; skalla-lint -timing prints them so an analyzer that regresses
// CI wall-clock is visible.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzersTimed is RunAnalyzers plus per-analyzer wall-clock timings,
// returned in the analyzers' registration order.
func RunAnalyzersTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing, error) {
	if len(pkgs) == 0 {
		return nil, nil, fmt.Errorf("lint: no packages to analyze")
	}
	fset := pkgs[0].Fset
	var allFiles []*ast.File
	for _, p := range pkgs {
		allFiles = append(allFiles, p.Files...)
	}
	sup := CollectSuppressions(fset, allFiles)

	// Per-run analyzer state: Begin runs once per invocation, never shared
	// across invocations, so a testdata run cannot contaminate a module run.
	states := make(map[*Analyzer]any, len(analyzers))
	elapsed := make(map[*Analyzer]time.Duration, len(analyzers))
	for _, a := range analyzers {
		if a.Begin != nil {
			states[a] = a.Begin()
		}
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				State:     states[a],
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !sup.Suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	out = append(out, sup.Malformed()...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i] = Timing{Name: a.Name, Elapsed: elapsed[a]}
	}
	return out, timings, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, DetRand, ErrFlow, LockGuard, LockOrder, GoLeak}
}
