package wfcheck

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// stale flags directives that no longer earn their keep: an annotation is
// a claim addressed to the analyzers, and when the code beneath it has
// changed shape until no analyzer would say anything without it, the
// directive documents a constraint that no longer exists — the static
// analogue of a comment drifting from its code. Findings here are
// warnings, reported only under -all and never failing the run: a stale
// directive is overly conservative, not unsound.
//
// The test is shape-relative, not mode-relative: a function-level
// directive is stale when auditing the function as if it were an
// unannotated wait-free entry point produces no finding, it contains no
// loop-line-justified loop, and it calls nothing that carries a
// non-waitfree claim of its own; a loop-line directive is stale when the
// loop's own shape (an exit condition, no Gosched spin) already satisfies
// every analyzer. A loop directive carrying a [steps] bracket is never
// stale: the bracket feeds the symbolic step algebra even when the
// progress analyzers need nothing.
//
// Findings are warnings by default; Config.StrictStale promotes them to
// errors unless allowlisted by "file.go:FuncName" (see stale).

// staleFunc checks the function's own directive.
func (r *run) staleFunc(p *Package, fd *ast.FuncDecl) {
	if d := p.Annots.Funcs[fd]; d != nil && d.Mode != ModeWaitFree && !r.justifiesDirective(p, fd) {
		r.stale(p, d, fd, "stale %s (%s) on %s: the analyzers find nothing in it that a wait-free function could not contain; remove the directive or update the reason", d.Mode, d.Arg, fd.Name.Name)
	}
}

// justifiesDirective reports whether fd, audited as an unannotated
// wait-free entry point, gives the analyzers anything to say — a blocking
// finding, a loop carrying its own justification, or a direct call to a
// function whose effective mode makes a non-waitfree claim (a bounded
// wrapper around a bounded primitive is the substitution-table idiom, not
// staleness).
func (r *run) justifiesDirective(p *Package, fd *ast.FuncDecl) bool {
	pf := r.prog.FuncOf(p.Info.Defs[fd.Name])
	if pf == nil {
		return true // unresolvable: stay quiet
	}
	probe := newBlockingPass(&run{prog: r.prog, res: &Result{}})
	probe.visit(pf, pf)
	if len(probe.res.Diags) > 0 {
		return true
	}
	justified := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if justified {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			justified = p.Annots.LoopDirective(n.Pos()) != nil
		case *ast.CallExpr:
			f := calleeFunc(p, n)
			if f == nil {
				return true
			}
			contract, callees := r.prog.callees(f)
			justified = contract != nil && contract.Mode != ModeWaitFree
			for _, c := range callees {
				justified = justified || c.Mode().Mode > ModeWaitFree
			}
		}
		return !justified
	})
	return justified
}

// stale reports a stale-directive finding at the directive: a warning, or
// under StrictStale an error unless Config.StaleAllow lists its
// "file.go:FuncName" key, which stays stable across line-number churn.
func (r *run) stale(p *Package, d *Directive, fd *ast.FuncDecl, format string, args ...any) {
	key := filepath.Base(p.Fset.Position(d.Pos).Filename) + ":" + fd.Name.Name
	r.report(p, "stale", d.Pos, format, args...).Warn = !r.StrictStale || r.StaleAllow[key]
}

// staleLoop warns about a loop-line directive sitting on a loop whose shape
// no analyzer flags: an exit condition with no Gosched spin needs no
// justification, so the directive is decoration that will drift.
func (r *run) staleLoop(p *Package, fd *ast.FuncDecl, loop ast.Node) {
	d := p.Annots.LoopDirective(loop.Pos())
	if d == nil || d.Steps != "" {
		return // a [steps] bracket feeds the symbolic algebra
	}
	switch n := loop.(type) {
	case *ast.ForStmt:
		if loopShape(p, n) == "" {
			r.stale(p, d, fd, "stale %s (%s): this loop's own exit condition already satisfies the analyzers; remove the directive (in %s)", d.Mode, d.Arg, fd.Name.Name)
		}
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return // blocking flags channel ranges regardless
			}
		}
		r.stale(p, d, fd, "stale %s (%s): range loops are bounded by their operand; remove the directive (in %s)", d.Mode, d.Arg, fd.Name.Name)
	}
}
