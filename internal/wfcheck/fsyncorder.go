package wfcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// fsyncorder audits the crash-durability commit protocols on functions
// marked //wf:durable. A function commits by rename (a temp file is
// written, synced, atomically renamed into place, and the directory is
// synced so the rename itself survives a crash) or by append (bytes are
// written to, or a file truncated through, an open handle that is then
// synced). The kill -9 drills sample a handful of crash points; this pass
// pins the ordering at every commit statically.
//
// The check is positional, not a full dominance analysis: within a durable
// function, every os.Rename must have a File.Sync on the renamed file at an
// earlier position and some other Sync (the directory handle) at a later
// one, and every (*os.File).Write or Truncate must have a Sync on the same
// handle at a later position. That matches the straight-line shape commit
// paths take in practice — the same decidable-over-complete trade the
// register-discipline analyzers make — and a rename whose source the
// analyzer cannot trace to a file handle is its own finding, waivable with
// a reason.
//
// os.Rename in a function not marked //wf:durable is flagged too: a commit
// rename outside the audited protocol is exactly the bug class this pass
// exists for. A //wf:durable directive on a function with neither a rename
// nor a write is a stale claim.

// syncCall is one (*os.File) method call site — a Sync, or a Write or
// Truncate the append commit must sync — with the receiver expression
// rendered as a string, and where it happened.
type syncCall struct {
	recv   string
	method string
	pos    token.Pos
}

// fileCall renders a method call on an *os.File as a syncCall.
func fileCall(call *ast.CallExpr) (syncCall, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return syncCall{}, false
	}
	return syncCall{recv: types.ExprString(ast.Unparen(sel.X)), method: sel.Sel.Name, pos: call.Pos()}, true
}

// fsyncOrderFunc checks one function's commit protocol.
func (r *run) fsyncOrderFunc(p *Package, fd *ast.FuncDecl) {
	var renames []*ast.CallExpr
	var syncs, writes []syncCall
	nameBinds := make(map[string]string) // local := f.Name() → "f"
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p, n)
			if fn == nil {
				return true
			}
			switch fn.FullName() {
			case "os.Rename":
				renames = append(renames, n)
			case "(*os.File).Sync":
				if c, ok := fileCall(n); ok {
					syncs = append(syncs, c)
				}
			case "(*os.File).Write", "(*os.File).Truncate":
				if c, ok := fileCall(n); ok {
					writes = append(writes, c)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent || id.Name == "_" {
					continue
				}
				if recv, ok := fileNameCall(p, n.Rhs[i]); ok {
					nameBinds[id.Name] = recv
				}
			}
		}
		return true
	})
	durablePos, durable := p.Annots.Durable[fd]
	if durable && len(renames) == 0 && len(writes) == 0 {
		r.report(p, "fsyncorder", durablePos, "%s is marked //wf:durable but commits nothing: no os.Rename, (*os.File).Write or Truncate in the body", fd.Name.Name)
		return
	}
	for _, w := range writes {
		// A write or truncate must be followed by a Sync on the same handle.
		if durable && !slices.ContainsFunc(syncs, func(s syncCall) bool { return s.recv == w.recv && s.pos > w.pos }) {
			r.report(p, "fsyncorder", w.pos, "%s.%s in %s is not followed by %s.Sync() before return: a crash can lose what the commit reports durable", w.recv, w.method, fd.Name.Name, w.recv)
		}
	}
	for _, rn := range renames {
		if !durable {
			r.report(p, "fsyncorder", rn.Pos(), "os.Rename commits a file but %s is not marked //wf:durable, so the fsync ordering is unaudited", fd.Name.Name)
			continue
		}
		fileExpr, ok := renameSource(p, rn, nameBinds)
		if !ok {
			r.report(p, "fsyncorder", rn.Pos(), "cannot trace the os.Rename source in %s to a file handle, so the file-sync ordering is unverifiable", fd.Name.Name)
			continue
		}
		// The renamed file's handle must be synced before the rename, and
		// some other handle — the directory, by the commit protocol's shape
		// — after it.
		if !slices.ContainsFunc(syncs, func(s syncCall) bool { return s.recv == fileExpr && s.pos < rn.Pos() }) {
			r.report(p, "fsyncorder", rn.Pos(), "os.Rename in %s is not preceded by %s.Sync(): a crash can commit a torn file", fd.Name.Name, fileExpr)
		}
		if !slices.ContainsFunc(syncs, func(s syncCall) bool { return s.recv != fileExpr && s.pos > rn.Pos() }) {
			r.report(p, "fsyncorder", rn.Pos(), "commit rename in %s is not followed by a directory fsync before return: a crash can lose the rename itself", fd.Name.Name)
		}
	}
}

// fileNameCall recognizes `f.Name()` on an *os.File receiver and returns the
// receiver's expression string.
func fileNameCall(p *Package, e ast.Expr) (string, bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	if fn := calleeFunc(p, call); fn == nil || fn.FullName() != "(*os.File).Name" {
		return "", false
	}
	c, ok := fileCall(call)
	return c.recv, ok
}

// renameSource resolves an os.Rename call's source argument to the file
// handle it names: a local bound from `x := f.Name()`, or a direct
// `f.Name()` argument.
func renameSource(p *Package, rn *ast.CallExpr, binds map[string]string) (string, bool) {
	if len(rn.Args) < 1 {
		return "", false
	}
	src := ast.Unparen(rn.Args[0])
	if id, isIdent := src.(*ast.Ident); isIdent {
		if recv, ok := binds[id.Name]; ok {
			return recv, true
		}
		return "", false
	}
	return fileNameCall(p, src)
}
