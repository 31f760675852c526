package wfcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"
)

// TestDominatorsOf pins the dominance engine on the shapes its two clients
// lean on: early-exit negations and if conditions along the path (inside a
// switch clause too), short-circuit operands, the reset at a function
// literal, and the statements known complete.
func TestDominatorsOf(t *testing.T) {
	const src = `package p
func f(a, b, c bool) {
	if a {
		return
	}
	pre()
	switch {
	case b:
		if c {
			break
		}
		if x := g(); x > 0 {
			_ = c && target()
			_ = c || func() bool { return target() }()
		}
	}
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	var targets []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && types.ExprString(call.Fun) == "target" {
			targets = append(targets, call)
		}
		return true
	})
	render := func(es []ast.Expr) []string {
		out := []string{}
		for _, e := range es {
			out = append(out, types.ExprString(e))
		}
		return out
	}
	for i, want := range []struct{ conds, negs []string }{
		{conds: []string{"x > 0", "c"}, negs: []string{"a", "c"}},
		{conds: []string{}, negs: []string{}}, // the literal's body runs when called
	} {
		d := dominatorsOf(body, targets[i])
		if got := render(d.conds); !slices.Equal(got, want.conds) {
			t.Errorf("target %d: conds %q, want %q", i, got, want.conds)
		}
		if got := render(d.negs); !slices.Equal(got, want.negs) {
			t.Errorf("target %d: negs %q, want %q", i, got, want.negs)
		}
		var pre ast.Stmt = body.List[1] // pre(), an earlier statement of the body
		if !d.completed(pre) {
			t.Errorf("target %d: pre() not known complete", i)
		}
	}
}
