package wfcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pubsafety checks the release/acquire discipline behind the publication
// idiom: a writer fills plain payload fields, then publishes them with an
// atomic store to a flag or pointer field of the same struct; readers must
// load that publication field atomically *before* touching the payload, or
// the happens-before edge the release store created never reaches them and
// the payload read races. atomicmix catches a single field accessed both
// atomically and plainly; pubsafety catches the cross-field version —
// payload written under a release of X, read without an acquire of X —
// which only exists for the wrapper types (atomic.Int64, atomic.Pointer,
// atomic.Value, ...) whose every direct access is atomic and therefore
// invisible to atomicmix.
//
// The check is scoped to same-struct pairs to stay precise: field F of
// struct T counts as published only when some function plainly writes F
// and atomically stores a wrapper-typed field X of the same T; a plain
// read of F is then flagged in any function that neither acquires (Load,
// CompareAndSwap, Swap on a wrapper field of T) nor releases T itself
// (the writer reads its own plain writes in program order).
type pubSafety struct {
	// pubName remembers, per struct, the wrapper field used to publish it
	// (the first one released), for the diagnostic message.
	pubName map[*types.Named]string
	funcs   []*pubFacts
}

// fieldAt is one plain access of a payload field.
type fieldAt struct {
	field *types.Var
	owner *types.Named
	pos   token.Pos
}

// pubFacts is what one function does to publication structs.
type pubFacts struct {
	decl        *ast.FuncDecl
	releases    map[*types.Named]bool
	acquires    map[*types.Named]bool
	plainWrites []fieldAt
	plainReads  []fieldAt
}

// gather records one function's releases, acquires and plain payload
// accesses.
func (ps *pubSafety) gather(p *Package, fd *ast.FuncDecl) {
	ff := &pubFacts{decl: fd, releases: make(map[*types.Named]bool), acquires: make(map[*types.Named]bool)}
	ps.funcs = append(ps.funcs, ff)
	plain := func(sel *ast.SelectorExpr) (fieldAt, bool) {
		field := fieldOf(p, sel)
		if field == nil || isAtomicWrapper(field.Type()) {
			return fieldAt{}, false
		}
		owner := ownerStruct(p, sel)
		return fieldAt{field, owner, sel.Pos()}, owner != nil
	}
	// An assignment target is the write recorded at its statement, which
	// the pre-order walk meets before the target selector itself.
	writeTargets := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			op, ok := atomicCall(p, n)
			if !ok || !op.method {
				return true
			}
			base, ok := ast.Unparen(op.recv).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field, owner := fieldOf(p, base), ownerStruct(p, base)
			if field == nil || !isAtomicWrapper(field.Type()) || owner == nil {
				return true
			}
			// CompareAndSwap and Swap both read and write the publication word.
			if op.kind == "Load" || op.kind == "CompareAndSwap" || op.kind == "Swap" {
				ff.acquires[owner] = true
			}
			if op.kind == "Store" || op.kind == "CompareAndSwap" || op.kind == "Swap" {
				ff.releases[owner] = true
				if _, ok := ps.pubName[owner]; !ok {
					ps.pubName[owner] = field.Name()
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					writeTargets[sel] = true
					if w, ok := plain(sel); ok {
						ff.plainWrites = append(ff.plainWrites, w)
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				writeTargets[sel] = true
				if w, ok := plain(sel); ok {
					ff.plainWrites = append(ff.plainWrites, w)
					ff.plainReads = append(ff.plainReads, w)
				}
			}
		case *ast.SelectorExpr:
			if rd, ok := plain(n); ok && !writeTargets[n] {
				ff.plainReads = append(ff.plainReads, rd)
			}
		}
		return true
	})
}

// join flags the plain reads of published payload fields in functions that
// neither acquire nor release the publishing struct. A payload field is
// published when one function both plainly writes it and releases a
// wrapper field of the same struct.
func (ps *pubSafety) join(r *run, p *Package) {
	published := make(map[*types.Var]token.Pos)
	for _, ff := range ps.funcs {
		for _, w := range ff.plainWrites {
			if _, seen := published[w.field]; !seen && ff.releases[w.owner] {
				published[w.field] = w.pos
			}
		}
	}
	for _, ff := range ps.funcs {
		for _, rd := range ff.plainReads {
			wpos, ok := published[rd.field]
			if !ok || ff.acquires[rd.owner] || ff.releases[rd.owner] {
				continue
			}
			where, owner, pub := p.Fset.Position(wpos), rd.owner.Obj().Name(), ps.pubName[rd.owner]
			r.report(p, "pubsafety", rd.pos, "plain read of %s.%s, which is published under an atomic store of %s.%s (write at %s:%d); load %s first or the release never reaches this reader (in %s)",
				owner, rd.field.Name(), owner, pub, where.Filename, where.Line, pub, ff.decl.Name.Name)
		}
	}
}

// isAtomicWrapper reports a sync/atomic wrapper type (atomic.Int64,
// atomic.Pointer[T], atomic.Value, ...), whose direct accesses are always
// atomic.
func isAtomicWrapper(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// ownerStruct resolves the named struct type a field selection reads
// through, dereferencing one pointer level.
func ownerStruct(p *Package, sel *ast.SelectorExpr) *types.Named {
	s := p.Info.Selections[sel]
	if s == nil {
		return nil
	}
	t := s.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
