package wfcheck

import (
	"go/ast"
	"go/types"
)

// singlewriter enforces the paper's single-writer-register discipline on
// annotated per-process slot arrays. A field marked //wf:singlewriter <owner>
// is a slice (or array) whose element i may be written only by process i:
// the announce/prefer/decided registers of the consensus protocols, the
// observed-prefix registers of the log GC, and the wfstats stripes all
// depend on it — two writers on one slot lose updates (StripedCounter's
// load+store) or break the protocol outright (a foreign write to announce
// forges an operation). The check is syntactic ownership: every element
// store — plain assignment, ++/--, or a sync/atomic mutation through the
// element, directly or through a one-level `slot := &f.field[i]` alias —
// must index by an identifier named exactly the annotated owner, the
// convention that makes ownership reviewable at the store site. Reads are
// free (the protocols scan all slots), and whole-field assignment replaces
// the slice header rather than an element, which is construction, not a
// slot write.

// swSite locates the annotated slice a store went through and the index it
// used.
type swSite struct {
	field *types.Var
	ann   *FieldAnn
	index ast.Expr
}

// swAlias records a one-level alias: `slot := &f.field[i]` (possibly
// deeper, `s := &c.slots[i].v`) transfers the indexed element — and the
// ownership obligation — to a local. One level is enough for the tree's
// idiom; an alias of an alias does not resolve and simply escapes the check.
func (r *run) swAlias(p *Package, aliases map[types.Object]*swSite, id *ast.Ident, rhs ast.Expr) {
	site := swResolve(r.prog, p, aliases, rhs)
	if site == nil {
		return
	}
	if obj := p.Info.Defs[id]; obj != nil {
		aliases[obj] = site
	} else if obj := p.Info.Uses[id]; obj != nil {
		aliases[obj] = site
	}
}

// swCheck flags an element store through e — an lvalue, or the register of
// a mutating atomic call — unless it indexes by the annotated owner.
// Whole-field assignment resolves to no site.
func (r *run) swCheck(p *Package, aliases map[types.Object]*swSite, at ast.Node, e ast.Expr, how string) {
	site := swResolve(r.prog, p, aliases, e)
	if site == nil {
		return
	}
	if idx, isIdent := unwrapConversion(p, site.index).(*ast.Ident); isIdent && idx.Name == site.ann.SingleWriter {
		return
	}
	r.report(p, "singlewriter", at.Pos(),
		"%s %s, annotated //wf:singlewriter %s, but indexes by %s — only the owning process may store its slot",
		how, site.field.Name(), site.ann.SingleWriter, types.ExprString(ast.Unparen(site.index)))
}

// swResolve walks an lvalue or receiver path down to the index expression
// that selects an element of a //wf:singlewriter field, resolving one level
// of local aliasing; nil when the path touches no annotated slice element.
func swResolve(prog *Program, p *Package, aliases map[types.Object]*swSite, e ast.Expr) *swSite {
	switch e := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if v, fa := annFieldOf(prog, p, e.X); v != nil && fa != nil && fa.SingleWriter != "" {
			return &swSite{field: v, ann: fa, index: e.Index}
		}
		return swResolve(prog, p, aliases, e.X)
	case *ast.SelectorExpr:
		return swResolve(prog, p, aliases, e.X)
	case *ast.StarExpr:
		return swResolve(prog, p, aliases, e.X)
	case *ast.UnaryExpr:
		return swResolve(prog, p, aliases, e.X)
	case *ast.Ident:
		if obj := p.Info.Uses[e]; obj != nil {
			return aliases[obj]
		}
	}
	return nil
}
