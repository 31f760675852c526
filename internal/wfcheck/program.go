package wfcheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view: every module package the loader has
// seen, indexed so the analyzers can resolve calls across package
// boundaries. PR 2's per-package analysis stopped at import edges — a
// wf:waitfree entry point calling a blocking helper in a sibling internal
// package was invisible. The paper's wait-freedom is a whole-execution
// property, so the audit now follows the module's import graph end to end;
// only the standard library remains a trusted boundary.
type Program struct {
	// Pkgs holds every loaded module package, sorted by import path.
	Pkgs []*Package

	// funcs maps each function object defined in any module package to its
	// declaration, so a call site in one package resolves to the body (and
	// the annotations) in another.
	funcs map[types.Object]*ProgFunc

	// impls caches, per interface method, the concrete in-module methods a
	// dynamic dispatch could reach.
	impls map[*types.Func][]*ProgFunc

	// named lists every defined (non-alias) type in the module, gathered
	// once for interface fan-out.
	named []*types.Named

	// contracts maps annotated interface methods to their directives: a
	// dispatch through such a method trusts the contract instead of fanning
	// out to implementations.
	contracts map[types.Object]*Directive

	// Module is the module path when the program was loaded from a module
	// root ("" for single-package fixture programs); the package whose import
	// path equals it is the façade that seeds symbolic op certification.
	Module string

	// steps maps objects carrying //wf:steps declarations — functions,
	// interface methods, func-typed fields — to their cost expressions.
	steps map[types.Object]string

	// fields maps const/field objects to their //wf:param / //wf:len /
	// discipline annotations, resolvable from any package's call sites.
	fields map[types.Object]*FieldAnn
}

// ProgFunc is one function declaration located in its package.
type ProgFunc struct {
	Pkg  *Package
	Decl *ast.FuncDecl
}

// Mode returns the effective directive mode governing the function.
func (pf *ProgFunc) Mode() Directive { return pf.Pkg.Annots.Effective(pf.Decl) }

// Name renders the function as pkg-qualified "path.F" or "path.(*T).M",
// with the given package's own path elided.
func (pf *ProgFunc) Name(from *Package) string {
	obj, ok := pf.Pkg.Info.Defs[pf.Decl.Name].(*types.Func)
	if !ok {
		return pf.Decl.Name.Name
	}
	full := obj.FullName()
	if from != nil && from.TPkg != nil {
		full = strings.ReplaceAll(full, from.TPkg.Path()+".", "")
	}
	return full
}

// NewProgram indexes everything the loader has loaded. Call after loading
// the target packages: transitively imported module packages are already in
// the loader's cache and participate in resolution.
func NewProgram(l *Loader) *Program {
	return newProgram(l.Packages(), l.Module)
}

// newProgram indexes pkgs into a program.
func newProgram(pkgs []*Package, module string) *Program {
	prog := &Program{
		Pkgs:      pkgs,
		funcs:     make(map[types.Object]*ProgFunc),
		impls:     make(map[*types.Func][]*ProgFunc),
		contracts: make(map[types.Object]*Directive),
		Module:    module,
		steps:     make(map[types.Object]string),
		fields:    make(map[types.Object]*FieldAnn),
	}
	for _, p := range pkgs {
		prog.index(p)
	}
	return prog
}

// index records one package's function declarations, interface contracts
// and named types into the program's resolution maps.
func (prog *Program) index(p *Package) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				prog.funcs[obj] = &ProgFunc{Pkg: p, Decl: fd}
			}
		}
	}
	for name, d := range p.Annots.Methods {
		if obj := p.Info.Defs[name]; obj != nil {
			prog.contracts[obj] = d
		}
	}
	for name, s := range p.Annots.Steps {
		if obj := p.Info.Defs[name]; obj != nil {
			prog.steps[obj] = s.Expr
		}
	}
	for name, fa := range p.Annots.Fields {
		obj := p.Info.Defs[name]
		if obj == nil {
			continue
		}
		prog.fields[obj] = fa
		if fa.Steps != "" {
			prog.steps[obj] = fa.Steps
		}
	}
	if p.TPkg == nil {
		return
	}
	scope := p.TPkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			prog.named = append(prog.named, n)
		}
	}
}

// SinglePackage builds a degenerate program over one package with no
// cross-package index: calls that leave the package stay unresolved. Run
// analyzes a lone package (the golden fixtures) through it.
func SinglePackage(p *Package) *Program {
	return newProgram([]*Package{p}, "")
}

// FuncOf resolves a function object (from any package's Defs/Uses) to its
// in-module declaration, or nil for standard-library and bodyless
// functions. Object identity holds across packages because every module
// package is type-checked through one loader.
func (prog *Program) FuncOf(obj types.Object) *ProgFunc {
	if obj == nil {
		return nil
	}
	return prog.funcs[obj]
}

// Implementations returns the concrete in-module methods that a dynamic
// call to interface method m could dispatch to: for every defined module
// type T where *T satisfies the interface, the declaration of T's method
// with m's name. The fan-out is conservative — any in-module implementation
// is assumed reachable, which is the sound direction for a blocking audit.
func (prog *Program) Implementations(m *types.Func) []*ProgFunc {
	if cached, ok := prog.impls[m]; ok {
		return cached
	}
	var out []*ProgFunc
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		prog.impls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		prog.impls[m] = nil
		return nil
	}
	for _, n := range prog.named {
		if _, isIface := n.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(n)
		if !types.Implements(ptr, iface) && !types.Implements(n, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if pf := prog.funcs[fn]; pf != nil {
			out = append(out, pf)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Name(nil) < out[j].Name(nil)
	})
	prog.impls[m] = out
	return out
}

// callees resolves a call to f: a contracted interface method to its
// contract, any other interface method to its in-module implementations, a
// module function to its declaration, and the standard library to nothing.
func (prog *Program) callees(f *types.Func) (*Directive, []*ProgFunc) {
	if isInterfaceMethod(f) {
		if d := prog.contracts[f]; d != nil {
			return d, nil
		}
		return nil, prog.Implementations(f)
	}
	if pf := prog.FuncOf(f); pf != nil {
		return nil, []*ProgFunc{pf}
	}
	return nil, nil
}

// isInterfaceMethod reports whether f is declared on an interface type
// (so a call through it is a dynamic dispatch).
func isInterfaceMethod(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	_, ok := sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}
