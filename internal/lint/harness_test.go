package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// expectation is one `// want "regex"` annotation in a testdata file.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// wantRe extracts the quoted or backquoted patterns of a want comment.
var wantRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// AnalyzerTestResult is the outcome of one testdata run, in a form the
// test file can assert on without depending on *testing.T (so the harness
// stays usable from other packages' tests).
type AnalyzerTestResult struct {
	// Unexpected are diagnostics with no matching want annotation.
	Unexpected []string
	// Unmatched are want annotations no diagnostic satisfied.
	Unmatched []string
}

// Failed reports whether the run deviated from the annotations.
func (r *AnalyzerTestResult) Failed() bool {
	return len(r.Unexpected) > 0 || len(r.Unmatched) > 0
}

// RunAnalyzerTest loads the testdata package in dir with the loader and
// checks the analyzers' diagnostics (after suppression filtering, exactly
// as the driver applies it) against `// want "regex"` comments: each
// flagged line must carry a want annotation matching the message, and
// every annotation must be matched. The mechanics mirror
// golang.org/x/tools/go/analysis/analysistest, which this module cannot
// depend on.
func RunAnalyzerTest(loader *Loader, dir string, analyzers ...*Analyzer) (*AnalyzerTestResult, error) {
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	diags, err := RunAnalyzers([]*Package{pkg}, analyzers)
	if err != nil {
		return nil, err
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		ws, err := collectWants(pkg, f)
		if err != nil {
			return nil, err
		}
		wants = append(wants, ws...)
	}

	res := &AnalyzerTestResult{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			res.Unexpected = append(res.Unexpected, d.String(pkg.Fset))
		}
	}
	for _, w := range wants {
		if !w.matched {
			res.Unmatched = append(res.Unmatched, fmt.Sprintf("%s:%d: no diagnostic matched %q",
				w.file, w.line, w.pattern.String()))
		}
	}
	return res, nil
}

// collectWants parses the `// want` annotations of one file.
func collectWants(pkg *Package, f *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			matches := wantRe.FindAllStringSubmatch(rest, -1)
			if len(matches) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
			}
			for _, m := range matches {
				text := m[1]
				if m[2] != "" {
					text = m[2]
				}
				re, err := regexp.Compile(text)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern: %w", pos.Filename, pos.Line, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
			}
		}
	}
	return out, nil
}

// LoadDir parses and type-checks a single directory outside the normal
// module package space (the analysistest-style harness points it at
// testdata packages). Imports resolve against whatever a prior Load (or
// LoadDeps) made available.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.check("testdata/"+filepath.Base(dir), dir, files)
}

// LoadDeps makes the dependency closure of the module's packages
// importable (export data for the standard library) without returning
// them for analysis. The harness calls it once so testdata packages can
// import anything the module itself imports.
func (l *Loader) LoadDeps() error {
	listed, err := goList([]string{"./..."})
	if err != nil {
		return err
	}
	for _, lp := range listed {
		if lp.Standard && lp.Export != "" {
			l.exportFiles[lp.ImportPath] = lp.Export
		}
	}
	return nil
}
