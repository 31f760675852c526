package wfcheck

import "go/ast"

// goown turns goroutine-leak hygiene into a finding: every go statement in
// an audited package must declare its shutdown edge with //wf:owns
// <mechanism> — the channel, listener, connection or context whose
// close/cancel stops the goroutine — and the declared mechanism must
// actually be reachable from the goroutine (mentioned in the call's
// arguments or function literal, or in the body of the in-module function
// it spawns). A goroutine nobody can stop is the static shape of the leak
// the server's NumGoroutine hygiene test measures dynamically.
//
// Packages whose package clause carries //wf:blocking are outside the
// service-tier audit (simulation substrates, one-shot commands) and are
// skipped wholesale, matching the blocking analyzer's treatment.

// goOwnStmt checks one go statement's ownership declaration.
func (r *run) goOwnStmt(p *Package, fd *ast.FuncDecl, gs *ast.GoStmt) {
	mark := p.Annots.ConsumeMark(p.Fset.Position(gs.Pos()), "owns")
	if mark == nil {
		r.report(p, "goown", gs.Pos(), "go statement in %s has no //wf:owns shutdown edge: nothing can stop this goroutine", fd.Name.Name)
		return
	}
	if mentions(gs.Call, mark.Mech) {
		return
	}
	if fn := calleeFunc(p, gs.Call); fn != nil {
		if pf := r.prog.FuncOf(fn); pf != nil && mentions(pf.Decl.Body, mark.Mech) {
			return
		}
	}
	r.report(p, "goown", gs.Pos(), "//wf:owns %s on the go statement in %s, but the goroutine never reaches that mechanism", mark.Mech, fd.Name.Name)
}
