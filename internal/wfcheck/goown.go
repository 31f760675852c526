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

// analyzeGoOwn runs the goown analyzer over one package.
func analyzeGoOwn(prog *Program, p *Package, diags *[]Diagnostic) {
	if p.Annots.Pkg != nil && p.Annots.Pkg.Mode == ModeBlocking {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, isGo := n.(*ast.GoStmt)
				if !isGo {
					return true
				}
				goOwnStmt(prog, p, fd, gs, diags)
				return true
			})
		}
	}
}

// goOwnStmt checks one go statement's ownership declaration.
func goOwnStmt(prog *Program, p *Package, fd *ast.FuncDecl, gs *ast.GoStmt, diags *[]Diagnostic) {
	mark := p.Annots.ConsumeMark(p.Fset.Position(gs.Pos()), "owns")
	if mark == nil {
		if d := disciplineDiag(p, gs.Pos(), "goown",
			"go statement in %s has no //wf:owns shutdown edge: nothing can stop this goroutine", fd.Name.Name); d != nil {
			*diags = append(*diags, *d)
		}
		return
	}
	if mentions(gs.Call, mark.Mech) {
		return
	}
	if fn := calleeFunc(p, gs.Call); fn != nil {
		if pf := prog.FuncOf(fn); pf != nil && pf.Decl.Body != nil && mentions(pf.Decl.Body, mark.Mech) {
			return
		}
	}
	if d := disciplineDiag(p, gs.Pos(), "goown",
		"//wf:owns %s on the go statement in %s, but the goroutine never reaches that mechanism", mark.Mech, fd.Name.Name); d != nil {
		*diags = append(*diags, *d)
	}
}
