package wfcheck

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// monotone proves that writes to annotated registers never decrease them.
// The log GC's safety argument (PR 6) rests on exactly this: the low-water
// floor, the anchor, the GC epoch and each observed-prefix slot only ever
// move forward, so a reader that checked the floor can trust every index at
// or below it forever. A single backward write silently un-retires log
// entries and the next swing frees memory a replay still walks. The pass
// accepts the three shapes the tree's protocols use, judged against the
// guards that dominate the write site (enclosing if conditions, preceding
// early-exit negations, && / || short-circuit operands):
//
//   - reg.Store(v) dominated by a proof that v >= reg.Load() (directly or
//     through a local bound from the register's own Load);
//   - reg.Add(c) / reg.Or(c) with a provably non-negative constant;
//   - reg.CompareAndSwap(old, new) dominated by a proof that new >= old —
//     CAS success means the register still holds old, so the write moves it
//     up.
//
// Everything else — Swap, plain assignment, an unguarded Store, or taking
// the register's address (which moves the mutation out of the analyzer's
// sight) — is a finding, to be fixed or waived with a reason.

// monotoneCall checks one mutating sync/atomic call against its register's
// //wf:monotone annotation.
func (r *run) monotoneCall(p *Package, fd *ast.FuncDecl, binds map[string]string, call *ast.CallExpr, op atomicOp) {
	field, fa := annFieldOf(r.prog, p, op.recv)
	if field == nil || fa == nil || !fa.Monotone {
		return
	}
	report := func(format string, args ...any) {
		r.report(p, "monotone", call.Pos(), "%s is //wf:monotone: "+format, append([]any{field.Name()}, args...)...)
	}
	recvPath := types.ExprString(ast.Unparen(op.recv))
	switch op.kind {
	case "Store":
		stored := types.ExprString(ast.Unparen(op.args[0]))
		if !dominatorsOf(fd.Body, call).provesGE(stored, func(b string) bool { return refMatches(b, recvPath, binds) }) {
			report("Store(%s) is not dominated by a %s >= %s.Load() guard", stored, stored, recvPath)
		}
	case "Add", "Or":
		if !nonNegativeConst(p, op.args[0]) {
			report("%s(%s) is not a provably non-negative constant step", op.kind, types.ExprString(op.args[0]))
		}
	case "CompareAndSwap":
		oldS := types.ExprString(ast.Unparen(op.args[0]))
		newS := types.ExprString(ast.Unparen(op.args[1]))
		if !dominatorsOf(fd.Body, call).provesGE(newS, func(b string) bool { return b == oldS }) {
			report("CompareAndSwap(%s, %s) is not dominated by a %s >= %s guard", oldS, newS, newS, oldS)
		}
	default: // Swap, And
		report("%s cannot be proven non-decreasing", op.fn.Name())
	}
}

// monotoneField flags a plain write to, or the address of, a //wf:monotone
// register.
func (r *run) monotoneField(p *Package, at ast.Node, e ast.Expr, why string) {
	if field, fa := annFieldOf(r.prog, p, e); field != nil && fa != nil && fa.Monotone {
		r.report(p, "monotone", at.Pos(), "%s is //wf:monotone: %s", field.Name(), why)
	}
}

// nonNegativeConst reports whether e is a compile-time constant >= 0.
func nonNegativeConst(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToInt(tv.Value)
	return v.Kind() == constant.Int && constant.Sign(v) >= 0
}
