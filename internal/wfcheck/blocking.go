package wfcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// blockedCalls maps the fully-qualified names of standard-library calls
// that can stall on another process to a short description. TryLock and
// buffered-channel probes are absent on purpose: they return.
var blockedCalls = map[string]string{
	"(*sync.Mutex).Lock":     "blocks while another process holds the mutex",
	"(*sync.RWMutex).Lock":   "blocks while another process holds the lock",
	"(*sync.RWMutex).RLock":  "blocks while a writer holds the lock",
	"(*sync.WaitGroup).Wait": "waits for other processes to finish",
	"(*sync.Cond).Wait":      "waits for another process's signal",
	"time.Sleep":             "stalls unconditionally",
}

// blockingPass is the whole-program call-graph audit. The per-function
// walk seeds it with the target packages' wf:waitfree entry points (every
// unannotated function too, in audit mode), and it flags every blocking
// construct transitively reachable from them. Calls resolve across package
// boundaries through the program index; interface call sites
// conservatively fan out to every in-module implementation; only the
// standard library and function values remain unresolved boundaries.
type blockingPass struct {
	*run
	visited map[*ast.FuncDecl]bool
}

// newBlockingPass starts a call-graph audit reporting into r.
func newBlockingPass(r *run) *blockingPass {
	return &blockingPass{run: r, visited: make(map[*ast.FuncDecl]bool)}
}

// seed audits fd as an entry point when its mode makes it one.
func (b *blockingPass) seed(p *Package, fd *ast.FuncDecl) {
	pf := b.prog.FuncOf(p.Info.Defs[fd.Name])
	if pf == nil {
		return
	}
	if mode := pf.Mode().Mode; mode == ModeWaitFree || (b.All && mode == ModeNone) {
		b.visit(pf, pf)
	}
}

// visit scans pf once, attributing findings to the entry point that first
// reached it.
func (b *blockingPass) visit(pf, entry *ProgFunc) {
	if b.visited[pf.Decl] {
		return
	}
	b.visited[pf.Decl] = true
	b.scan(pf, entry)
}

// scan walks one function body for blocking constructs and calls to
// traverse — same-package or not.
func (b *blockingPass) scan(pf, entry *ProgFunc) {
	p := pf.Pkg
	// First pass: account for channel operations that appear as the comm
	// statement of a select case — they do not block on their own if the
	// select has a default; if it has none, the select itself is the finding.
	accounted := make(map[ast.Node]bool)
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			cc := clause.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.SendStmt, *ast.UnaryExpr:
					accounted[m] = true
				}
				return true
			})
		}
		if !hasDefault {
			b.flag(pf, entry, sel.Pos(), "select without a default case blocks until another process communicates")
		}
		return true
	})

	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !accounted[n] {
				b.flag(pf, entry, n.Pos(), "channel send outside a select with default can block on a slow receiver")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !accounted[n] {
				b.flag(pf, entry, n.Pos(), "channel receive outside a select with default blocks until another process sends")
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					b.flag(pf, entry, n.Pos(), "ranging over a channel blocks between messages")
				}
			}
		case *ast.ForStmt:
			b.checkLoop(pf, entry, n)
		case *ast.CallExpr:
			b.checkCall(pf, entry, n)
		}
		return true
	})
}

// checkLoop applies the loop-shape rules unless a loop-line wf:bounded or
// wf:lockfree directive suppresses them; boundcert and progress then audit
// the directive itself.
func (b *blockingPass) checkLoop(pf, entry *ProgFunc, loop *ast.ForStmt) {
	if pf.Pkg.Annots.LoopDirective(loop.Pos()) == nil {
		if msg := loopShape(pf.Pkg, loop); msg != "" {
			b.flag(pf, entry, loop.Pos(), msg)
		}
	}
}

// loopShape is the one rule for which loops need a directive: a loop with
// no exit condition is unbounded, and a conditioned loop that yields via
// runtime.Gosched is a spin-wait on another process's progress. It returns
// the finding, or "" for a loop whose exit condition is local (three-clause
// scans, range over data) — the analyzer is a conservative syntactic
// check, per Theorem 6's spirit of trading completeness for decidability.
func loopShape(p *Package, loop *ast.ForStmt) string {
	if loop.Cond == nil {
		return "unbounded loop: no exit condition; justify with //wf:bounded <bound> or //wf:lockfree <reason>, or restructure with helping"
	}
	if goschedIn(p, loop).IsValid() {
		return "spin loop: runtime.Gosched marks waiting on another process's progress; justify with //wf:bounded <bound> or restructure with helping"
	}
	return ""
}

// goschedIn reports the position of a runtime.Gosched call directly inside
// loop (not in nested loops, which are checked on their own).
func goschedIn(p *Package, loop *ast.ForStmt) token.Pos {
	found := token.NoPos
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			if f := calleeFunc(p, n); f != nil && f.FullName() == "runtime.Gosched" {
				found = n.Pos()
			}
		}
		return found == token.NoPos
	})
	return found
}

// checkCall flags blocking standard-library calls and traverses or flags
// resolvable callees according to their annotations. Interface dispatch
// fans out to every in-module implementation.
func (b *blockingPass) checkCall(pf, entry *ProgFunc, call *ast.CallExpr) {
	f := calleeFunc(pf.Pkg, call)
	if f == nil {
		return // conversion, builtin, or dynamic call through a function value
	}
	full := f.FullName()
	if why, ok := blockedCalls[full]; ok {
		name := strings.NewReplacer("(*", "", ")", "").Replace(full)
		b.flag(pf, entry, call.Pos(), fmt.Sprintf("calls %s: %s", name, why))
		return
	}
	contract, targets := b.prog.callees(f)
	// A contracted interface method is trusted or flagged on the contract's
	// own terms. Implementations are still audited at their declarations —
	// a wf:waitfree implementation is its own entry point, and a
	// wf:blocking one (the demo harnesses) is honest about breaking the
	// contract and answers only to its own callers.
	switch {
	case contract != nil && contract.Mode == ModeBlocking:
		b.flag(pf, entry, call.Pos(),
			fmt.Sprintf("calls %s, whose interface contract is wf:blocking (%s)", f.FullName(), contract.Arg))
	case contract != nil && contract.Mode == ModeLockFree:
		b.flag(pf, entry, call.Pos(),
			fmt.Sprintf("calls %s, whose interface contract is wf:lockfree (%s): lock-free progress does not compose into wait-freedom", f.FullName(), contract.Arg))
	}
	// Without a contract, interface dispatch fans out to every in-module
	// implementation; the standard library is trusted at the module boundary.
	for _, target := range targets {
		b.follow(pf, entry, target, call, isInterfaceMethod(f))
	}
}

// follow handles one resolved callee according to its effective directive.
func (b *blockingPass) follow(pf, entry *ProgFunc, target *ProgFunc, call *ast.CallExpr, dynamic bool) {
	via := "calls"
	if dynamic {
		via = "may dispatch to"
	}
	switch d := target.Mode(); d.Mode {
	case ModeBlocking:
		b.flag(pf, entry, call.Pos(),
			fmt.Sprintf("%s %s, annotated wf:blocking (%s)", via, target.Name(pf.Pkg), d.Arg))
	case ModeLockFree:
		b.flag(pf, entry, call.Pos(),
			fmt.Sprintf("%s %s, annotated wf:lockfree (%s): lock-free progress does not compose into wait-freedom", via, target.Name(pf.Pkg), d.Arg))
	case ModeBounded:
		// Trusted manual bound; do not descend.
	case ModeWaitFree:
		b.visit(target, target) // its own entry point; findings attribute to it
	default:
		b.visit(target, entry)
	}
}

// flag records a finding, naming the containing function and, when it
// differs, the wait-free entry point that reaches it.
func (b *blockingPass) flag(pf, entry *ProgFunc, pos token.Pos, msg string) {
	where := pf.Name(pf.Pkg)
	label := "wf:waitfree"
	if entry.Mode().Mode != ModeWaitFree {
		label = "unannotated" // audit-mode entry, assumed wait-free
	}
	if pf.Decl != entry.Decl {
		b.report(pf.Pkg, "blocking", pos, "%s (in %s, reached from %s %s)", msg, where, label, entry.Name(pf.Pkg))
	} else {
		b.report(pf.Pkg, "blocking", pos, "%s (in %s %s)", msg, label, where)
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for conversions, builtins and calls through function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
