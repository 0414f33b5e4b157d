package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// sharedLoaders is the process-wide loader registry, keyed by absolute
// module root. go/importer's source importer parses and type-checks
// every standard-library package it touches from source, which
// dominates lint time: a cold import of net/fmt/time and friends costs
// a couple of seconds, and before this cache every test and every
// swept package directory that built its own Loader paid it again.
// Sharing one Loader per module root means the stdlib is imported once
// per process — the full-tree sweep and the whole analysis test suite
// run in roughly the time one package used to take. Loaders are not
// safe for concurrent use; the mutex only guards the registry itself.
var (
	sharedLoaderMu sync.Mutex
	sharedLoaders  = map[string]*Loader{}
)

// SharedLoader returns the process-wide cached loader for the module
// rooted at root, creating it on first use.
func SharedLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	sharedLoaderMu.Lock()
	defer sharedLoaderMu.Unlock()
	if l, ok := sharedLoaders[abs]; ok {
		return l, nil
	}
	l, err := NewLoader(abs)
	if err != nil {
		return nil, err
	}
	sharedLoaders[abs] = l
	return l, nil
}

// Package is one parsed and fully type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved
// straight from the source tree, and everything else (the standard
// library) goes through go/importer's source importer. go.mod stays
// dependency-free.
type Loader struct {
	Root   string // absolute module root
	Module string // module path from go.mod
	fset   *token.FileSet
	std    types.Importer
	byDir  map[string]*Package
	active map[string]bool // cycle guard
}

// NewLoader returns a loader rooted at the module directory root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   abs,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		byDir:  make(map[string]*Package),
		active: make(map[string]bool),
	}, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from the
// source tree, the rest from the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		p, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// moduleRel returns the module-relative slash path for a module-internal
// import path, and whether path is module-internal at all.
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// LoadDir parses and type-checks the package in dir (ignoring _test.go
// files). Results are cached; a type error anywhere fails the load, so
// every rule runs over a fully resolved tree.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.byDir[abs]; ok {
		return p, nil
	}
	if l.active[abs] {
		return nil, fmt.Errorf("import cycle through %s", abs)
	}
	l.active[abs] = true
	defer delete(l.active, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(abs, name); err != nil || !ok {
			continue // excluded by its build constraints, as go build would
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	importPath := l.importPathFor(abs)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("type-check %s: %v", importPath, terrs[0])
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        abs,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.byDir[abs] = p
	return p, nil
}

// ModuleDirs returns every package directory under root that holds
// buildable (non-test) Go files, skipping testdata trees and hidden
// directories. Paths come back sorted and absolute.
func ModuleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || d != dirs[i-1] {
			out = append(out, d)
		}
	}
	return out, nil
}
