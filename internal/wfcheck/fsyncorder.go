package wfcheck

import (
	"go/ast"
	"go/token"
	"go/types"
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

// analyzeFsyncOrder runs the fsyncorder analyzer over one package.
func analyzeFsyncOrder(p *Package, diags *[]Diagnostic) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fsyncOrderFunc(p, fd, diags)
		}
	}
}

// fsyncOrderFunc checks one function's commit protocol.
func fsyncOrderFunc(p *Package, fd *ast.FuncDecl, diags *[]Diagnostic) {
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
		*diags = append(*diags, Diagnostic{
			Pos: p.Fset.Position(durablePos), Analyzer: "fsyncorder",
			Message: fd.Name.Name + " is marked //wf:durable but commits nothing: no os.Rename, (*os.File).Write or Truncate in the body",
		})
		return
	}
	if durable {
		for _, w := range writes {
			if !syncAfter(syncs, w) {
				if d := disciplineDiag(p, w.pos, "fsyncorder",
					"%s.%s in %s is not followed by %s.Sync() before return: a crash can lose what the commit reports durable", w.recv, w.method, fd.Name.Name, w.recv); d != nil {
					*diags = append(*diags, *d)
				}
			}
		}
	}
	for _, rn := range renames {
		if !durable {
			if d := disciplineDiag(p, rn.Pos(), "fsyncorder",
				"os.Rename commits a file but %s is not marked //wf:durable, so the fsync ordering is unaudited", fd.Name.Name); d != nil {
				*diags = append(*diags, *d)
			}
			continue
		}
		fileExpr, ok := renameSource(p, rn, nameBinds)
		if !ok {
			if d := disciplineDiag(p, rn.Pos(), "fsyncorder",
				"cannot trace the os.Rename source in %s to a file handle, so the file-sync ordering is unverifiable", fd.Name.Name); d != nil {
				*diags = append(*diags, *d)
			}
			continue
		}
		if !syncBefore(syncs, fileExpr, rn.Pos()) {
			if d := disciplineDiag(p, rn.Pos(), "fsyncorder",
				"os.Rename in %s is not preceded by %s.Sync(): a crash can commit a torn file", fd.Name.Name, fileExpr); d != nil {
				*diags = append(*diags, *d)
			}
		}
		if !dirSyncAfter(syncs, fileExpr, rn.Pos()) {
			if d := disciplineDiag(p, rn.Pos(), "fsyncorder",
				"commit rename in %s is not followed by a directory fsync before return: a crash can lose the rename itself", fd.Name.Name); d != nil {
				*diags = append(*diags, *d)
			}
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
	fn := calleeFunc(p, call)
	if fn == nil || fn.FullName() != "(*os.File).Name" {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	return types.ExprString(ast.Unparen(sel.X)), true
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

// syncBefore reports whether the renamed file's handle was Synced at an
// earlier position than the rename.
func syncBefore(syncs []syncCall, fileExpr string, rename token.Pos) bool {
	for _, s := range syncs {
		if s.recv == fileExpr && s.pos < rename {
			return true
		}
	}
	return false
}

// dirSyncAfter reports whether some other handle — the directory, by the
// commit protocol's shape — is Synced after the rename.
func dirSyncAfter(syncs []syncCall, fileExpr string, rename token.Pos) bool {
	for _, s := range syncs {
		if s.recv != fileExpr && s.pos > rename {
			return true
		}
	}
	return false
}

// syncAfter reports whether the handle a Write or Truncate went through is
// Synced at a later position.
func syncAfter(syncs []syncCall, w syncCall) bool {
	for _, s := range syncs {
		if s.recv == w.recv && s.pos > w.pos {
			return true
		}
	}
	return false
}
