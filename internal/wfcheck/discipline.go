package wfcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Shared machinery for the register-discipline analyzers (singlewriter,
// monotone, abasafe). All three reason about the same kinds of facts: which
// annotated field an atomic call or assignment actually targets (possibly
// through a one-level `slot := &owner.field[i]` alias), which locals are
// bound from a register's own Load (`old := reg.Load()`), and which
// comparisons dominate a statement (enclosing if conditions plus the
// negations of preceding same-block early exits). Matching is syntactic —
// expression strings, the same currency boundcert trades in — which is the
// usual static-analysis trade: decidable and reviewable over complete.

// annFieldOf resolves an expression to its annotated field object, if the
// expression is a field selection (or plain identifier) carrying a FieldAnn.
func annFieldOf(prog *Program, p *Package, e ast.Expr) (*types.Var, *FieldAnn) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if v := fieldOf(p, x); v != nil {
			return v, prog.fields[v]
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			return v, prog.fields[v]
		}
	}
	return nil, nil
}

// atomicCallSite decomposes a sync/atomic method call into its receiver
// expression and method name; ok is false for anything else.
func atomicCallSite(p *Package, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

// loadBindings maps local identifiers defined as `x := path.Load()` (also in
// if-statement inits) to the receiver path string of the Load. The monotone
// and abasafe guards use it to recognize that a comparison against x is a
// comparison against the register's own prior value.
func loadBindings(p *Package, body *ast.BlockStmt) map[string]string {
	binds := make(map[string]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			call, isCall := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !isCall || len(call.Args) != 0 {
				continue
			}
			sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !isSel || sel.Sel.Name != "Load" {
				continue
			}
			binds[id.Name] = types.ExprString(ast.Unparen(sel.X))
		}
		return true
	})
	return binds
}

// guardSet is the set of comparisons known to hold at one statement: conds
// are conditions whose then-branch encloses it; negs are conditions of
// preceding same-block `if cond { ...exit }` statements, known false.
type guardSet struct {
	conds []ast.Expr
	negs  []ast.Expr
}

// collectGuards gathers the guard set dominating target within body.
// Descending into a function literal resets the set — a closure's call sites
// are not dominated by the literal's lexical context — which errs toward
// findings, the sound direction.
func collectGuards(body *ast.BlockStmt, target ast.Node) guardSet {
	var out guardSet
	var visit func(n ast.Node, gs guardSet) bool
	contains := func(n ast.Node) bool {
		return n != nil && n.Pos() <= target.Pos() && target.End() <= n.End()
	}
	visit = func(n ast.Node, gs guardSet) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			for _, s := range n.List {
				if contains(s) {
					return visit(s, gs)
				}
				if ifs, isIf := s.(*ast.IfStmt); isIf && ifs.Else == nil && endsInExit(ifs.Body) {
					gs.negs = append(gs.negs, ifs.Cond)
				}
			}
		case *ast.IfStmt:
			if contains(n.Body) {
				gs.conds = append(gs.conds, n.Cond)
				return visit(n.Body, gs)
			}
			if n.Else != nil && contains(n.Else) {
				return visit(n.Else, gs)
			}
			if n.Init != nil && contains(n.Init) {
				out = gs
				return true
			}
			if contains(n.Cond) {
				// Inside the condition itself: short-circuit operands left of
				// target on && dominate it; on ||, their negations do.
				gs = condGuards(n.Cond, target, gs)
				out = gs
				return true
			}
		case *ast.ForStmt:
			for _, sub := range []ast.Node{n.Init, n.Cond, n.Post, n.Body} {
				if contains(sub) {
					return visit(sub, gs)
				}
			}
		case *ast.RangeStmt:
			if contains(n.Body) {
				return visit(n.Body, gs)
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if found || m == n {
					return true
				}
				if b, isBlock := m.(*ast.BlockStmt); isBlock && contains(b) {
					found = visit(b, gs)
					return false
				}
				if _, isLit := m.(*ast.FuncLit); isLit {
					return contains(m)
				}
				return true
			})
			if found {
				return true
			}
			out = gs
			return true
		case *ast.FuncLit:
			return visit(n.Body, guardSet{})
		default:
			// A plain statement or expression containing the target: look for
			// nested literals and short-circuit guards, then settle.
			var settled bool
			ast.Inspect(n, func(m ast.Node) bool {
				if settled {
					return false
				}
				if lit, isLit := m.(*ast.FuncLit); isLit && contains(lit) && lit != n {
					settled = visit(lit, gs)
					return false
				}
				if be, isBin := m.(*ast.BinaryExpr); isBin && (be.Op == token.LAND || be.Op == token.LOR) && contains(be) {
					gs = condGuards(be, target, gs)
					settled = true
					out = gs
					return false
				}
				return true
			})
			if !settled {
				out = gs
			}
			return true
		}
		out = gs
		return true
	}
	visit(body, guardSet{})
	return out
}

// condGuards extends the guard set for a target nested inside a boolean
// expression: on `a && b`, a dominates b; on `a || b`, !a dominates b.
func condGuards(cond ast.Expr, target ast.Node, gs guardSet) guardSet {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin {
		return gs
	}
	inY := be.Y.Pos() <= target.Pos() && target.End() <= be.Y.End()
	if inY {
		switch be.Op {
		case token.LAND:
			gs.conds = append(gs.conds, be.X)
		case token.LOR:
			gs.negs = append(gs.negs, be.X)
		}
		return condGuards(be.Y, target, gs)
	}
	if be.X.Pos() <= target.Pos() && target.End() <= be.X.End() {
		return condGuards(be.X, target, gs)
	}
	return gs
}

// endsInExit reports whether the block's last statement unconditionally
// leaves the enclosing flow: return, break, continue, goto, or panic.
func endsInExit(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true // break, continue and goto all leave the enclosing flow
	case *ast.ExprStmt:
		if call, isCall := last.X.(*ast.CallExpr); isCall {
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// refMatches reports whether expression string e denotes the current value
// of the register at path: the literal `path.Load()` call, or a local the
// binds map ties to that Load.
func refMatches(e string, path string, binds map[string]string) bool {
	if e == path+".Load()" {
		return true
	}
	return binds[e] == path
}

// guardProvesGE reports whether the guard set proves a >= b (a, b rendered
// expression strings): a positive guard comparing a above b, or a known-
// false guard comparing a at-or-below b. matchB widens what counts as b
// (e.g. the register's own Load under any bound name).
func guardProvesGE(gs guardSet, a string, matchB func(string) bool) bool {
	side := func(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }
	for _, c := range gs.conds {
		be, isBin := ast.Unparen(c).(*ast.BinaryExpr)
		if !isBin {
			continue
		}
		x, y := side(be.X), side(be.Y)
		switch be.Op {
		case token.GTR, token.GEQ: // a > b, a >= b
			if x == a && matchB(y) {
				return true
			}
		case token.LSS, token.LEQ: // b < a, b <= a
			if y == a && matchB(x) {
				return true
			}
		case token.LAND:
			if guardProvesGE(guardSet{conds: []ast.Expr{be.X}}, a, matchB) ||
				guardProvesGE(guardSet{conds: []ast.Expr{be.Y}}, a, matchB) {
				return true
			}
		}
	}
	for _, c := range gs.negs {
		be, isBin := ast.Unparen(c).(*ast.BinaryExpr)
		if !isBin {
			continue
		}
		x, y := side(be.X), side(be.Y)
		switch be.Op {
		case token.LSS, token.LEQ: // !(a < b), !(a <= b)
			if x == a && matchB(y) {
				return true
			}
		case token.GTR, token.GEQ: // !(b > a), !(b >= a)
			if y == a && matchB(x) {
				return true
			}
		}
	}
	return false
}

// mentions reports whether any expression inside hay — an expression tree
// or a whole statement body — renders to the needle string.
func mentions(hay ast.Node, needle string) bool {
	found := false
	ast.Inspect(hay, func(n ast.Node) bool {
		if e, isExpr := n.(ast.Expr); isExpr && types.ExprString(ast.Unparen(e)) == needle {
			found = true
		}
		return !found
	})
	return found
}

// disciplineDiag builds one finding, consuming a waiver if the line (or the
// line above) carries one for the analyzer.
func disciplineDiag(p *Package, pos token.Pos, analyzer, format string, args ...any) *Diagnostic {
	position := p.Fset.Position(pos)
	if p.Annots.Waive(position, analyzer) {
		return nil
	}
	return &Diagnostic{Pos: position, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}
