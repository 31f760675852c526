package wfcheck

import (
	"go/ast"
	"slices"
)

// ackpersist statically pins the persist-before-apply contract of the
// service tier: a client-visible acknowledgement — a wire response write or
// a result-channel send, marked //wf:ack — must be dominated by a completed
// //wf:persist statement on every path that reaches it. The kill -9 drills
// witness the contract at sampled crash points; this pass makes "ack before
// persist" a compile-time finding.
//
// //wf:persist marks the statement whose completion makes the operation
// durable (a store append, or the conditional that decides persistence for
// the batch); //wf:ack marks the statement that makes the result visible to
// the client. Both attach like waivers: trailing on the statement's line or
// on the line directly above. Domination is structural: the persist must be
// an earlier sibling (or sit inside one, reached unconditionally) in some
// block enclosing the ack, or live in the init/condition of a statement
// enclosing it. An ack with no persist in its function, a persist nothing
// acknowledges, and a mark attached to no statement are each findings.

// markedStmt is one statement carrying an //wf:ack or //wf:persist mark.
type markedStmt struct {
	stmt ast.Stmt
	mark *LineMark
}

// ackPersistFunc attaches the function's ack/persist marks to statements and
// checks that every ack is dominated by a persist.
func (r *run) ackPersistFunc(p *Package, fd *ast.FuncDecl) {
	var acks, persists []markedStmt
	// Pre-order walk: the outermost statement starting on a mark's line
	// claims it, so a mark above `if init; cond {` attaches to the whole if
	// statement, init included.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, isStmt := n.(ast.Stmt)
		if !isStmt {
			return true
		}
		if _, isBlock := st.(*ast.BlockStmt); isBlock {
			return true
		}
		pos := p.Fset.Position(st.Pos())
		if m := p.Annots.ConsumeMark(pos, "ack"); m != nil {
			acks = append(acks, markedStmt{stmt: st, mark: m})
		}
		if m := p.Annots.ConsumeMark(pos, "persist"); m != nil {
			persists = append(persists, markedStmt{stmt: st, mark: m})
		}
		return true
	})
	for _, a := range acks {
		if len(persists) == 0 {
			r.report(p, "ackpersist", a.mark.Pos, "//wf:ack in %s has no //wf:persist in the function: the acknowledgement precedes any durability", fd.Name.Name)
			continue
		}
		d := dominatorsOf(fd.Body, a.stmt)
		if !slices.ContainsFunc(persists, func(pr markedStmt) bool { return d.completed(pr.stmt) }) {
			r.report(p, "ackpersist", a.mark.Pos, "//wf:ack in %s is not dominated by a completed //wf:persist: some path acknowledges before persisting", fd.Name.Name)
		}
	}
	for _, pr := range persists {
		if len(acks) == 0 {
			r.report(p, "ackpersist", pr.mark.Pos, "//wf:persist in %s acknowledges nothing: no //wf:ack in the function", fd.Name.Name)
		}
	}
}
