package wfcheck

import (
	"go/ast"
	"go/types"
	"strings"
)

// abasafe audits compare-and-swap on recyclable pointers for the ABA
// hazard: a CAS that observes old, sleeps while old's referent is freed and
// its address reused for a new object, then succeeds against the recycled
// address — acting on state it never validated. The tree's pointer CAS
// idioms are each safe for a stated reason, and the pass demands one of
// them at every atomic pointer CAS site:
//
//   - install-once: CompareAndSwap(nil, fresh) — nil is never recycled, and
//     success transitions the slot out of nil forever (the consensus
//     directory's decide slots);
//   - held-pointer: old was loaded from this same register in this function
//     (`c := reg.Load(); ...; reg.CompareAndSwap(c, ...)`) — Go's GC cannot
//     recycle an address the CAS'er still references, so success implies
//     the register held that very object throughout (the read-cache
//     invalidation, the registry's snapshot install);
//   - value-derived: new is computed from old as an operand, the RMW shape
//     where a recycled-but-equal old still yields the intended transition;
//   - declared: the field carries //wf:monotone (an ordered tag makes
//     repeats harmless) or //wf:abaguard <reason> (epoch bump or other
//     protocol argument, stated at the field).
//
// Integer CAS is out of scope: numbers are values, not addresses — an
// "ABA" on a counter is just an equal value, and the ordered cases that do
// matter (the GC anchor swing) are the monotone analyzer's job.

// analyzeABA checks every sync/atomic pointer CompareAndSwap in the package.
func analyzeABA(prog *Program, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, checkABA(prog, p, fd)...)
		}
	}
	return diags
}

// checkABA audits one function body.
func checkABA(prog *Program, p *Package, fd *ast.FuncDecl) []Diagnostic {
	binds := loadBindings(p, fd.Body)
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		recv, old, new, ok := pointerCAS(p, call)
		if !ok {
			return true
		}
		recvPath := ""
		var fa *FieldAnn
		if recv != nil {
			if _, a := annFieldOf(prog, p, recv); a != nil {
				fa = a
			}
			recvPath = types.ExprString(ast.Unparen(recv))
		}
		switch {
		case fa != nil && (fa.Monotone || fa.ABAGuard != ""):
			return true // declared protection at the field
		case isNilExpr(p, old):
			return true // install-once: nil is never a recycled address
		case recvPath != "" && refMatches(types.ExprString(ast.Unparen(old)), recvPath, binds):
			return true // held-pointer: the GC pins old's address while we hold it
		case mentions(new, types.ExprString(ast.Unparen(old))):
			return true // value-derived RMW: new is a function of old
		}
		if d := disciplineDiag(p, call.Pos(), "abasafe",
			"pointer CompareAndSwap(%s, %s) has no ABA protection: old is neither nil, held from this register's own Load, nor an operand of new, and the field declares no //wf:monotone or //wf:abaguard",
			types.ExprString(old), types.ExprString(new)); d != nil {
			diags = append(diags, *d)
		}
		return true
	})
	return diags
}

// pointerCAS decomposes a sync/atomic CompareAndSwap whose compared values
// are pointers: the atomic.Pointer[T] method form (recv, args old/new) or
// the CompareAndSwapPointer function form (recv nil, unsafe.Pointer args).
func pointerCAS(p *Package, call *ast.CallExpr) (recv, old, new ast.Expr, ok bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
		!strings.HasPrefix(fn.Name(), "CompareAndSwap") {
		return nil, nil, nil, false
	}
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && len(call.Args) == 2 {
		if t := p.Info.TypeOf(sel.X); t != nil && isPointerAtomic(t) {
			return sel.X, call.Args[0], call.Args[1], true
		}
		return nil, nil, nil, false
	}
	if len(call.Args) == 3 { // CompareAndSwapPointer(addr, old, new)
		if t := p.Info.TypeOf(call.Args[1]); t != nil && isPointerValue(t) {
			return nil, call.Args[1], call.Args[2], true
		}
	}
	return nil, nil, nil, false
}

// isPointerAtomic reports an atomic wrapper whose payload is an address:
// atomic.Pointer[T] (or a pointer to one).
func isPointerAtomic(t types.Type) bool {
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed || !isAtomicWrapper(n) {
		return false
	}
	return n.Obj().Name() == "Pointer"
}

// isPointerValue reports a pointer-shaped value type (unsafe.Pointer or *T).
func isPointerValue(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
