package wfcheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicMix flags struct fields accessed both through sync/atomic
// package-level functions (atomic.LoadInt64(&s.f), ...) and by plain
// read/write anywhere in the package. Such a field has no consistent access
// discipline: the plain access races with the atomic one, and the race
// detector only catches the schedules that happen to run. Fields of the
// modern atomic.Int64-style types cannot be accessed plainly and need no
// check. The whole package is scanned regardless of annotations — a mixed
// field is a bug in blocking code too.
func (r *run) atomicMix(p *Package) {
	type access struct {
		pos   token.Pos
		fname string // atomic function used, e.g. sync/atomic.LoadInt64
	}
	atomicFields := make(map[*types.Var]access) // field -> first atomic access
	viaAtomic := make(map[*ast.SelectorExpr]bool)

	// Pass 1: find fields whose address feeds a sync/atomic call.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op, ok := atomicCall(p, call)
			if !ok || op.method {
				return true
			}
			unary, ok := ast.Unparen(op.recv).(*ast.UnaryExpr)
			if !ok || unary.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			field := fieldOf(p, sel)
			if field == nil {
				return true
			}
			viaAtomic[sel] = true
			if _, seen := atomicFields[field]; !seen {
				atomicFields[field] = access{pos: sel.Pos(), fname: op.fn.FullName()}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}

	// Pass 2: every other selector of those fields is a plain access.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || viaAtomic[sel] {
				return true
			}
			field := fieldOf(p, sel)
			if field == nil {
				return true
			}
			first, ok := atomicFields[field]
			if !ok {
				return true
			}
			firstPos := p.Fset.Position(first.pos)
			r.report(p, "atomicmix", sel.Pos(), "field %s is accessed with %s (at %s:%d) but plainly here: pick one discipline",
				field.Name(), first.fname, firstPos.Filename, firstPos.Line)
			return true
		})
	}
}

// fieldOf resolves a selector expression to the struct field it denotes,
// or nil for methods, qualified identifiers and non-field selections.
func fieldOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
