package wfcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses one file and returns its annotations plus the function
// declarations by name.
func parseSrc(t *testing.T, src string) (*Annotations, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	funcs := make(map[string]*ast.FuncDecl)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	return parseAnnotations(fset, []*ast.File{f}), funcs
}

func TestPackageDirectiveIsTheDefault(t *testing.T) {
	a, funcs := parseSrc(t, `
// Package p does things.
//
//wf:waitfree
package p

func Plain() {}

//wf:blocking waits for the fixture's peer
func Slow() {}

type T struct{}

//wf:bounded one trusted step
func (T) Gate() {}

func (T) M() {}
`)
	if len(a.Errors) != 0 {
		t.Fatalf("unexpected annotation errors: %v", a.Errors)
	}
	if a.Pkg == nil || a.Pkg.Mode != ModeWaitFree {
		t.Fatalf("package directive = %+v, want wf:waitfree", a.Pkg)
	}
	for name, want := range map[string]Mode{
		"Plain": ModeWaitFree, // inherits the package default
		"Slow":  ModeBlocking, // own directive wins over the package's
		"Gate":  ModeBounded,  // methods are annotated like functions
		"M":     ModeWaitFree, // methods inherit the package default too
	} {
		if got := a.Effective(funcs[name]).Mode; got != want {
			t.Errorf("Effective(%s) = %v, want %v", name, got, want)
		}
	}
	if arg := a.Effective(funcs["Slow"]).Arg; arg != "waits for the fixture's peer" {
		t.Errorf("blocking reason = %q", arg)
	}
}

func TestConflictingDirectivesError(t *testing.T) {
	a, _ := parseSrc(t, `
package p

//wf:waitfree
//wf:blocking also this
func Both() {}
`)
	if len(a.Errors) != 1 || !strings.Contains(a.Errors[0].Message, "conflicting wf:waitfree and wf:blocking") {
		t.Fatalf("errors = %v, want one conflicting-directives error", a.Errors)
	}
}

func TestConflictingPackageDirectivesError(t *testing.T) {
	a, _ := parseSrc(t, `
// Package p claims everything at once.
//
//wf:waitfree
//wf:blocking no it does not
package p
`)
	if len(a.Errors) != 1 || !strings.Contains(a.Errors[0].Message, "package p: conflicting") {
		t.Fatalf("errors = %v, want one package-conflict error", a.Errors)
	}
}

func TestRepeatedEqualDirectivesAreTolerated(t *testing.T) {
	a, funcs := parseSrc(t, `
package p

//wf:waitfree
//wf:waitfree
func Twice() {}
`)
	if len(a.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", a.Errors)
	}
	if got := a.Effective(funcs["Twice"]).Mode; got != ModeWaitFree {
		t.Errorf("Effective(Twice) = %v", got)
	}
}

func TestMalformedDirectives(t *testing.T) {
	a, _ := parseSrc(t, `
package p

//wf:blocking
func NoReason() {}

//wf:bounded
func NoBound() {}

//wf:turbo yes
func Unknown() {}

// wf:waitfree is prose because of the space, never a directive.
func Prose() {}
`)
	var msgs []string
	for _, e := range a.Errors {
		msgs = append(msgs, e.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"wf:blocking requires a reason",
		"wf:bounded requires a stated bound",
		"unknown directive wf:turbo",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("errors missing %q in:\n%s", want, joined)
		}
	}
	if len(a.Errors) != 3 {
		t.Errorf("got %d errors, want 3: %v", len(a.Errors), msgs)
	}
}

func TestLockFreeDirective(t *testing.T) {
	a, funcs := parseSrc(t, `
package p

//wf:lockfree CAS retry; some process always completes
func Retry() {}

//wf:lockfree
func NoReason() {}
`)
	if got := a.Effective(funcs["Retry"]); got.Mode != ModeLockFree || !strings.Contains(got.Arg, "CAS retry") {
		t.Errorf("Effective(Retry) = %+v, want wf:lockfree with its reason", got)
	}
	if len(a.Errors) != 1 || !strings.Contains(a.Errors[0].Message, "wf:lockfree requires a reason") {
		t.Errorf("errors = %v, want one missing-reason error", a.Errors)
	}
}

func TestInterfaceMethodContract(t *testing.T) {
	a, _ := parseSrc(t, `
package p

type Prim interface {
	// Op does the thing.
	//
	//wf:bounded contract: one primitive step
	Op() int

	Plain() int
}
`)
	if len(a.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", a.Errors)
	}
	if len(a.Methods) != 1 {
		t.Fatalf("Methods has %d entries, want 1", len(a.Methods))
	}
	for name, d := range a.Methods {
		if name.Name != "Op" || d.Mode != ModeBounded || d.Arg != "contract: one primitive step" {
			t.Errorf("Methods[%s] = %+v, want bounded contract on Op", name.Name, d)
		}
	}
	// The contract must not leak into the loop-directive index.
	if dirs := a.loopDirectives(); len(dirs) != 0 {
		t.Errorf("interface contract recorded as loop directive: %v", dirs)
	}
}

func TestLoopBoundedPlacement(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

func f() {
	//wf:bounded directly above: suppressed
	for {
	}
	for { //wf:bounded trailing on the loop line: suppressed
	}

	//wf:bounded a blank line below breaks adjacency

	for {
	}
}
`
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	a := parseAnnotations(fset, []*ast.File{f})
	var loops []*ast.ForStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if l, ok := n.(*ast.ForStmt); ok {
			loops = append(loops, l)
		}
		return true
	})
	if len(loops) != 3 {
		t.Fatalf("found %d loops, want 3", len(loops))
	}
	for i, want := range []bool{true, true, false} {
		if got := a.LoopDirective(loops[i].Pos()) != nil; got != want {
			t.Errorf("LoopDirective(loop %d) != nil = %v, want %v", i, got, want)
		}
	}
}
