package wfcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// The shared machinery of the package doc's "Shared machinery" section.

// atomicOp is one sync/atomic call, decomposed the same way for the method
// form (reg.Store(v)) and the package-function form (atomic.StoreInt64(&x,
// v)).
type atomicOp struct {
	fn     *types.Func
	method bool       // the wrapper-type method form
	recv   ast.Expr   // the register: the method receiver, or the &x first argument
	kind   string     // the name without its type suffix: CompareAndSwap, Store, Swap, Add, Or, And or Load
	args   []ast.Expr // the operands after the register
}

// atomicCall classifies call as a sync/atomic operation; ok is false for any
// other call.
func atomicCall(p *Package, call *ast.CallExpr) (op atomicOp, ok bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return atomicOp{}, false
	}
	op = atomicOp{fn: fn, kind: fn.Name(), args: call.Args}
	for _, kind := range []string{"CompareAndSwap", "Store", "Swap", "Add", "Or", "And", "Load"} {
		if strings.HasPrefix(op.kind, kind) {
			op.kind = kind
			break
		}
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		if len(call.Args) == 0 {
			return atomicOp{}, false
		}
		op.recv, op.args = call.Args[0], call.Args[1:]
		return op, true
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return atomicOp{}, false
	}
	op.method, op.recv = true, sel.X
	return op, true
}

// mutates reports whether the operation writes its register.
func (op atomicOp) mutates() bool {
	switch op.kind {
	case "CompareAndSwap", "Store", "Swap", "Add", "Or", "And":
		return true
	}
	return false
}

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

// disciplineFunc runs the register-discipline checks over one function
// body in one walk. Two facts are gathered first, because a use may precede
// its binding in source order (a loop re-reads at its end):
// locals bound from a register's own Load (`old := reg.Load()`, for
// monotone and abasafe) and singlewriter's slot aliases (`slot :=
// &t.field[i]`).
func (r *run) disciplineFunc(p *Package, fd *ast.FuncDecl) {
	binds := make(map[string]string) // local → the receiver path of the Load it holds
	aliases := make(map[types.Object]*swSite)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent {
				continue
			}
			if recv, ok := loadOf(as.Rhs[i]); ok && id.Name != "_" {
				binds[id.Name] = recv
			}
			r.swAlias(p, aliases, id, as.Rhs[i])
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			op, ok := atomicCall(p, n)
			if !ok {
				return true
			}
			if op.mutates() {
				r.swCheck(p, aliases, n, op.recv, op.fn.Name()+" mutates an element of")
				r.monotoneCall(p, fd, binds, n, op)
			}
			r.abaCall(p, binds, n, op)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				// A bare identifier lhs (re)binds a local — taking a slot
				// alias is not an element write; writes through it (*slot,
				// slot.v.Store) are caught at their own sites.
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); !isIdent {
					r.swCheck(p, aliases, n, lhs, "assignment writes an element of")
				}
				r.monotoneField(p, n, lhs, "plain assignment bypasses the register's atomic monotone protocol")
			}
		case *ast.IncDecStmt:
			r.swCheck(p, aliases, n, n.X, "step writes an element of")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.monotoneField(p, n, n.X, "taking its address moves mutations out of the analyzer's sight")
			}
		}
		return true
	})
}

// loadOf recognizes `path.Load()` and returns the receiver path string.
func loadOf(e ast.Expr) (string, bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "Load" {
		return "", false
	}
	return types.ExprString(ast.Unparen(sel.X)), true
}

// dominators is what holds on every path from a function's entry to one
// node inside it: the conditions known true (conds) and known false (negs)
// there, and the statements and prelude expressions known to have run to
// completion (done).
type dominators struct {
	conds, negs []ast.Expr
	done        []ast.Node
}

// dominatorsOf walks the one path from body down to target and collects
// what dominates target. Along the path:
//   - an earlier statement of an enclosing statement list has completed, and
//     an earlier `if cond { ...exit }` with no else leaves cond false;
//   - a compound statement's body or branches run after its prelude (the
//     if's init and condition, a for's init and condition, a range operand,
//     a switch's init and tag); an if's body runs with its condition true,
//     and a mark on the if line, which covers the whole if, covers its init;
//   - in `a && b`, a holds while b runs; in `a || b`, !a does;
//   - a function literal's body runs when it is called, not where it is
//     written, so the conditions reset there; statements that completed
//     before the literal was built stay done.
//
// The engine is structural, so it errs toward findings: a condition it
// cannot see through is simply not known.
func dominatorsOf(body *ast.BlockStmt, target ast.Node) dominators {
	var d dominators
	path := pathTo(body, target)
	for i := 0; i+1 < len(path); i++ {
		next := path[i+1]
		switch n := path[i].(type) {
		case *ast.BlockStmt:
			d.precede(n.List, next)
		case *ast.CaseClause:
			d.precede(n.Body, next)
		case *ast.CommClause:
			d.precede(n.Body, next)
		case *ast.BinaryExpr:
			if next == n.Y && n.Op == token.LAND {
				d.conds = append(d.conds, n.X)
			} else if next == n.Y && n.Op == token.LOR {
				d.negs = append(d.negs, n.X)
			}
		case *ast.FuncLit:
			d.conds, d.negs = nil, nil
		default:
			pre := prelude(n)
			if pre == nil || slices.Contains(pre, next) {
				continue
			}
			for _, p := range pre {
				if p != nil {
					d.done = append(d.done, p)
				}
			}
			if ifs, isIf := n.(*ast.IfStmt); isIf {
				d.done = append(d.done, ifs)
				if next == ifs.Body {
					d.conds = append(d.conds, ifs.Cond)
				}
			}
		}
	}
	return d
}

// prelude returns the parts of a compound statement that run before its
// body or branches, or nil for any other node.
func prelude(n ast.Node) []ast.Node {
	switch n := n.(type) {
	case *ast.IfStmt:
		return []ast.Node{n.Init, n.Cond}
	case *ast.ForStmt:
		return []ast.Node{n.Init, n.Cond}
	case *ast.RangeStmt:
		return []ast.Node{n.X}
	case *ast.SwitchStmt:
		return []ast.Node{n.Init, n.Tag}
	case *ast.TypeSwitchStmt:
		return []ast.Node{n.Init, n.Assign}
	}
	return nil
}

// precede records the statements of list that run before next.
func (d *dominators) precede(list []ast.Stmt, next ast.Node) {
	for _, s := range list {
		if s == next {
			return
		}
		d.done = append(d.done, s)
		if ifs, isIf := s.(*ast.IfStmt); isIf && ifs.Else == nil && endsInExit(ifs.Body) {
			d.negs = append(d.negs, ifs.Cond)
		}
	}
}

// completed reports whether stmt has run to completion on every path to the
// node: it is, or sits unconditionally inside, one of the done nodes.
func (d dominators) completed(stmt ast.Node) bool {
	for _, n := range d.done {
		if nodeContains(n, stmt) && uncondWithin(n, stmt) {
			return true
		}
	}
	return false
}

// pathTo returns the chain of nodes from root down to target (inclusive of
// both), or nil if target is not under root.
func pathTo(root, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			path = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return path
}

// nodeContains reports whether inner's source range sits inside outer's.
func nodeContains(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

// uncondWithin reports whether inner is reached unconditionally whenever
// outer executes to completion: the path from outer to inner crosses no
// conditional body, loop body, select/switch clause, function literal, or
// deferred/spawned call.
func uncondWithin(outer, inner ast.Node) bool {
	if outer == inner {
		return true
	}
	path := pathTo(outer, inner)
	if path == nil {
		return false
	}
	for i := 0; i < len(path)-1; i++ {
		switch n := path[i].(type) {
		case *ast.SelectStmt, *ast.CaseClause, *ast.CommClause,
			*ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		default:
			if pre := prelude(n); pre != nil && !slices.Contains(pre, path[i+1]) {
				return false
			}
		}
	}
	return true
}

// endsInExit reports whether the block's last statement unconditionally
// leaves the enclosing flow: return, break, continue, goto, or panic.
func endsInExit(b *ast.BlockStmt) bool {
	switch last := lastStmt(b).(type) {
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

// lastStmt returns the block's last statement, or nil for an empty block.
func lastStmt(b *ast.BlockStmt) ast.Stmt {
	if len(b.List) == 0 {
		return nil
	}
	return b.List[len(b.List)-1]
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

// provesGE reports whether the dominating conditions prove a >= b (a, b
// rendered expression strings): a known-true condition comparing a above b,
// or a known-false one comparing a at-or-below b. matchB widens what counts
// as b (e.g. the register's own Load under any bound name).
func (d dominators) provesGE(a string, matchB func(string) bool) bool {
	side := func(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }
	for _, c := range d.conds {
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
			if (dominators{conds: []ast.Expr{be.X}}).provesGE(a, matchB) ||
				(dominators{conds: []ast.Expr{be.Y}}).provesGE(a, matchB) {
				return true
			}
		}
	}
	for _, c := range d.negs {
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
