package wfcheck

import (
	"go/ast"
	"go/types"
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

// abaCall audits one sync/atomic call: a CompareAndSwap whose compared
// values are pointers — the atomic.Pointer[T] method form, or the
// CompareAndSwapPointer function form on unsafe.Pointer — needs one of the
// protections above.
func (r *run) abaCall(p *Package, binds map[string]string, call *ast.CallExpr, op atomicOp) {
	if op.kind != "CompareAndSwap" || len(op.args) != 2 {
		return
	}
	old, new := op.args[0], op.args[1]
	if t := p.Info.TypeOf(op.recv); op.method && (t == nil || !isPointerAtomic(t)) {
		return
	}
	if t := p.Info.TypeOf(old); !op.method && (t == nil || !isPointerValue(t)) {
		return
	}
	recvPath := types.ExprString(ast.Unparen(op.recv))
	_, fa := annFieldOf(r.prog, p, op.recv)
	switch {
	case fa != nil && (fa.Monotone || fa.ABAGuard != ""):
		return // declared protection at the field
	case isNilExpr(p, old):
		return // install-once: nil is never a recycled address
	case refMatches(types.ExprString(ast.Unparen(old)), recvPath, binds):
		return // held-pointer: the GC pins old's address while we hold it
	case mentions(new, types.ExprString(ast.Unparen(old))):
		return // value-derived RMW: new is a function of old
	}
	r.report(p, "abasafe", call.Pos(),
		"pointer CompareAndSwap(%s, %s) has no ABA protection: old is neither nil, held from this register's own Load, nor an operand of new, and the field declares no //wf:monotone or //wf:abaguard",
		types.ExprString(old), types.ExprString(new))
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
