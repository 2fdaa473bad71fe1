package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Error      *struct{ Err string }
}

// Loader loads module packages from source, resolving standard-library
// imports through compiler export data produced by `go list -export`. It
// exists because this module is dependency-free: without
// golang.org/x/tools/go/packages, source loading plus export data is the
// complete program picture the type checker needs.
type Loader struct {
	Fset *token.FileSet

	exportFiles map[string]string         // import path -> export data file
	checked     map[string]*types.Package // module packages already checked
	imp         types.ImporterFrom        // gc export-data importer
}

// NewLoader returns an empty loader with a fresh file set.
func NewLoader() *Loader {
	l := &Loader{
		Fset:        token.NewFileSet(),
		exportFiles: map[string]string{},
		checked:     map[string]*types.Package{},
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// lookupExport opens the export data for an import path listed by go list.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := l.exportFiles[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// Import implements types.Importer: module packages resolve to their
// source-checked form (identity with the packages under analysis),
// everything else reads export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.imp.Import(path)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// Load lists patterns (e.g. "./...") with the go tool and returns every
// non-standard-library package in the dependency closure, type-checked
// from source in dependency order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	// go list -deps emits dependencies before dependents, so a single
	// in-order sweep type-checks every import before its importer.
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard {
			if lp.Export != "" {
				l.exportFiles[lp.ImportPath] = lp.Export
			}
			continue
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no module packages matched %v", patterns)
	}
	return out, nil
}

// check parses and type-checks one package's files.
func (l *Loader) check(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	l.checked[path] = tpkg
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// goList runs `go list -deps -export -json` on the patterns from the
// module root and decodes the JSON stream.
func goList(patterns []string) ([]*listedPackage, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above working directory")
		}
		dir = parent
	}
}
