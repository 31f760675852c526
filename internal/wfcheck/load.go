package wfcheck

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
)

// Package is one loaded, parsed, type-checked, annotation-parsed package.
type Package struct {
	Dir    string // absolute directory
	Path   string // import path within the module
	Fset   *token.FileSet
	Files  []*ast.File
	TPkg   *types.Package
	Info   *types.Info
	Annots *Annotations
	// TypeErrors collects type-check problems; analysis proceeds past them
	// (the build step has already vouched for the tree) but resolution may
	// be incomplete where they point.
	TypeErrors []error
}

// Loader loads module packages from source with the standard library
// resolved through the compiler's source importer — stdlib-only, no go/packages.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	std     types.ImporterFrom
	pkgs    map[string]*Package // by absolute directory
	loading map[string]bool     // import-cycle guard, by directory
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("wfcheck: source importer unavailable")
	}
	return &Loader{
		Fset:    fset,
		Root:    root,
		Module:  mod,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Packages returns every module package this loader has loaded so far —
// the directly requested ones and everything pulled in transitively through
// module-internal imports — sorted by import path for deterministic
// whole-program traversal.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	//wf:bounded the path loses one component per iteration and the walk stops at the filesystem root
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("wfcheck: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("wfcheck: no module line in %s", gomod)
}

// ErrNoGoFiles marks a directory with no non-test Go files.
var ErrNoGoFiles = fmt.Errorf("wfcheck: no non-test Go files")

// LoadDir parses and type-checks the package in dir. Test files (_test.go)
// are excluded: the analyzers audit shipped code, and test harnesses may
// block freely.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("wfcheck: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// A file built only on other platforms (a //go:build line or a
		// _GOOS suffix) would redeclare its platform twin.
		if ok, err := build.Default.MatchFile(dir, name); err == nil && !ok {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, ErrNoGoFiles
	}
	sort.Strings(names)

	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue // stray file of another package (ignored, like go/build would)
		}
		files = append(files, f)
	}

	p := &Package{
		Dir:    dir,
		Path:   l.importPathFor(dir),
		Fset:   l.Fset,
		Files:  files,
		Annots: parseAnnotations(l.Fset, files),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(p.Path, l.Fset, files, info)
	p.TPkg = tpkg
	p.Info = info
	l.pkgs[dir] = p
	return p, nil
}

// importPathFor maps an absolute directory to its module import path; for
// directories outside the module tree (testdata fixtures loaded directly)
// the directory base is used.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// their source directories through this loader, everything else (the
// standard library) through the compiler's source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if sub, ok := l.moduleDir(path); ok {
		p, err := l.LoadDir(sub)
		if err != nil {
			return nil, err
		}
		if p.TPkg == nil {
			return nil, fmt.Errorf("wfcheck: type-checking %s failed", path)
		}
		return p.TPkg, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}

// moduleDir maps a module-internal import path to its directory.
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.Module {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}
