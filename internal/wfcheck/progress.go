package wfcheck

import (
	"go/ast"
	"go/token"
)

// progress is the static mirror of the paper's central distinction: a
// wait-free operation completes in a bounded number of its *own* steps
// (Herlihy §1), while a lock-free one only guarantees that *some* process
// completes — a CAS retry loop spins exactly when other processes keep
// winning. The universal construction escapes this through helping
// (Figure 4-5: every process announces, every process propagates others'
// announced operations), so a retry path that performs no shared write
// cannot be helping anyone and the loop is lock-free at best. The pass
// detects such loops — a condition-less `for` whose every exit requires
// this process's CompareAndSwap to succeed or a re-read of shared state to
// change, with no helping write on the retry path — and requires them to be
// annotated honestly: wf:blocking on the function, or the loop-line
// wf:lockfree <reason> acknowledgment. A wf:bounded claim on such a loop is
// rejected: its trip count is a fact about other processes' schedules,
// which is precisely what a step bound must not depend on.

// progressFunc lints one function unless it is declared blocking or
// lock-free; the audit runs on unannotated functions too, because a
// disguised retry loop is as wrong there as in a wf:waitfree function.
func (r *run) progressFunc(p *Package, fd *ast.FuncDecl) {
	switch p.Annots.Effective(fd).Mode {
	case ModeBlocking, ModeLockFree:
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		d := p.Annots.LoopDirective(loop.Pos())
		if d != nil && d.Mode == ModeLockFree || !isCASRetryLoop(p, loop) {
			return true // acknowledged loops surface in the bounds report
		}
		if d != nil && d.Mode == ModeBounded {
			r.report(p, "progress", loop.Pos(), "wf:bounded (%s) claims a step bound, but this CAS retry loop's trip count depends on other processes' writes; annotate //wf:lockfree <reason> or add a helping write (in %s)", d.Arg, fd.Name.Name)
		} else {
			r.report(p, "progress", loop.Pos(), "lock-free retry loop: every exit needs this process's CAS to win or shared state to change, and the retry path helps no one; annotate //wf:blocking on the function or //wf:lockfree <reason> on the loop, or restructure with helping (in %s)", fd.Name.Name)
		}
		return true
	})
}

// isCASRetryLoop reports whether loop (condition-less) matches the
// lock-free-but-not-wait-free shape: at least one exit guarded by a
// condition containing a sync/atomic CompareAndSwap, every exit
// conditional (so a retry remains possible on every iteration), and no
// helping write — no atomic mutation besides the exit CASes and no plain
// write through a field, pointer or index — on the retry path.
func isCASRetryLoop(p *Package, loop *ast.ForStmt) bool {
	casGuarded := 0
	unconditional := 0
	exitCASes := make(map[*ast.CallExpr]bool)

	// recordExit classifies one conditional exit: guards containing a CAS
	// mark a CAS-success exit (and those CAS calls become the loop's exit
	// CASes, exempt from helping-write credit).
	recordExit := func(guards []ast.Expr) {
		found := false
		for _, g := range guards {
			ast.Inspect(g, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall {
					if op, ok := atomicCall(p, call); ok && op.kind == "CompareAndSwap" {
						exitCASes[call] = true
						found = true
					}
				}
				return true
			})
		}
		if found {
			casGuarded++
		}
	}

	var walkExits func(n ast.Node, guards []ast.Expr)
	walkExits = func(n ast.Node, guards []ast.Expr) {
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Nested regions where a plain break does not exit this loop;
			// returns (and labeled breaks) still do. Approximate them as
			// conditional exits under the guards in force at the region.
			ast.Inspect(s, func(m ast.Node) bool {
				switch mm := m.(type) {
				case *ast.FuncLit:
					return false // its returns do not exit this loop
				case *ast.ReturnStmt:
					recordExit(guards)
				case *ast.BranchStmt:
					if mm.Tok == token.BREAK && mm.Label != nil {
						recordExit(guards)
					}
				}
				return true
			})
		case *ast.IfStmt:
			walkExits(s.Init, guards)
			inner := append(append([]ast.Expr(nil), guards...), s.Cond)
			walkExits(s.Body, inner)
			walkExits(s.Else, inner)
		case *ast.BlockStmt:
			for _, st := range s.List {
				walkExits(st, guards)
			}
		case *ast.ReturnStmt, *ast.BranchStmt:
			if br, isBranch := s.(*ast.BranchStmt); isBranch && br.Tok != token.BREAK && br.Tok != token.GOTO {
				return // continue stays in the loop
			}
			if len(guards) == 0 {
				unconditional++
			} else {
				recordExit(guards)
			}
		case *ast.LabeledStmt:
			walkExits(s.Stmt, guards)
		}
	}
	for _, st := range loop.Body.List {
		walkExits(st, nil)
	}

	if casGuarded == 0 || unconditional > 0 {
		return false
	}

	// Helping write: any atomic mutation other than the exit CASes, or any
	// plain write through a field, pointer or index — the shared-state
	// writes a helping protocol would perform on the retry path.
	helping := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if helping {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, ok := atomicCall(p, s); ok && op.mutates() && !exitCASes[s] {
				helping = true
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if isSharedLvalue(p, lhs) {
					helping = true
				}
			}
		case *ast.IncDecStmt:
			if isSharedLvalue(p, s.X) {
				helping = true
			}
		}
		return !helping
	})
	return !helping
}

// isSharedLvalue reports an assignment target that can be shared state: a
// struct field, a pointer dereference, or an element of something reached
// through one — anything that is not a plain local identifier or an index
// into one.
func isSharedLvalue(p *Package, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return fieldOf(p, e) != nil
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return isSharedLvalue(p, e.X)
	}
	return false
}
