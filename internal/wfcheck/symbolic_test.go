package wfcheck

import (
	"strings"
	"testing"
)

// TestPolyAlgebra pins the step-polynomial algebra the certifier composes
// bounds with: addition for sequence, multiplication for nesting, termwise
// maximum for either-or dispatch.
func TestPolyAlgebra(t *testing.T) {
	n, k := polyParam("n"), polyParam("k")
	sum := n.Add(k).Add(polyConst(3))
	if sum["n"] != 1 || sum["k"] != 1 || sum[""] != 3 {
		t.Errorf("n + k + 3 = %v", sum)
	}
	prod := sum.Mul(n)
	if prod["n·n"] != 1 || prod["k·n"] != 1 || prod["n"] != 3 {
		t.Errorf("(n + k + 3) * n = %v", prod)
	}
	if got := prod.String(); got != "O(k·n + n·n + n)" {
		t.Errorf("String() = %q, want degree-then-name order", got)
	}
	max := Poly{"n": 2, "": 1}.Max(Poly{"n": 1, "k": 5})
	if max["n"] != 2 || max["k"] != 5 || max[""] != 1 {
		t.Errorf("termwise max = %v", max)
	}
	if got := polyConst(7).String(); got != "O(1)" {
		t.Errorf("constant poly renders %q, want O(1)", got)
	}
}

// TestPolyEval pins the runtime cross-check's half of the contract: Eval
// instantiates every parameter or refuses.
func TestPolyEval(t *testing.T) {
	p := Poly{"k·n": 2, "n": 1, "": 4}
	got, err := p.Eval(map[string]int64{"n": 3, "k": 5})
	if err != nil || got != 2*5*3+3+4 {
		t.Errorf("Eval = %d, %v; want 37", got, err)
	}
	if _, err := p.Eval(map[string]int64{"n": 3}); err == nil {
		t.Error("Eval with a missing parameter did not error")
	}
	if params := p.Params(); strings.Join(params, ",") != "k,n" {
		t.Errorf("Params() = %v, want [k n]", params)
	}
}

// TestParseSteps pins the declared-bound expression language: identifiers,
// non-negative integers, + and * only.
func TestParseSteps(t *testing.T) {
	p, err := parseSteps("2*n + k*(n + 1) + 3")
	if err != nil {
		t.Fatal(err)
	}
	if p["n"] != 2 || p["k·n"] != 1 || p["k"] != 1 || p[""] != 3 {
		t.Errorf("parseSteps composed %v", p)
	}
	for _, bad := range []string{"", "n - 1", "n / 2", "f(n)", "1.5", "-1"} {
		if _, err := parseSteps(bad); err == nil {
			t.Errorf("parseSteps(%q) accepted an expression outside the algebra", bad)
		}
	}
}

// TestSymbolicComposition pins the tentpole on the cross-package fixture:
// symb.Front.Poll runs r rounds (a counted loop against a //wf:param field
// in package symb) of inner.Scanner.Scan (a range over a //wf:len register
// array in package inner), so its certificate must be the product O(n·r) —
// parameters declared in two different packages, composed through the
// whole-program call graph. The inner operation certifies trusted: the
// range's trip count is machine-derived, but the parameter it resolves to
// is the declared //wf:len fact, and declared facts compose as trusted.
func TestSymbolicComposition(t *testing.T) {
	loader, p := loadFixture(t, "symb")
	r := newRun(Config{}, NewProgram(loader))
	ops, diags := r.analyzeSymbolic(p), r.res.Diags
	if len(diags) != 0 {
		t.Fatalf("symb fixture has symbolic diagnostics: %v", diags)
	}
	byOp := map[string]OpCert{}
	for _, c := range ops {
		byOp[c.Op] = c
	}
	poll, ok := byOp["symb.Front.Poll"]
	if !ok {
		t.Fatalf("no certificate for symb.Front.Poll among %d ops", len(ops))
	}
	if poll.Status == BoundUnbounded {
		t.Fatalf("Poll is unbounded: %s", poll.Basis)
	}
	if poll.Poly["n·r"] < 1 {
		t.Errorf("Poll certified %s, want the cross-package n·r product", poll.Bound)
	}
	scan, ok := byOp["inner.Scanner.Scan"]
	if !ok {
		t.Fatalf("closure did not certify inner.Scanner.Scan; have %v", keysOf(byOp))
	}
	if scan.Status != BoundTrusted {
		t.Errorf("Scan certified %q (%s), want %q: the //wf:len fact is declared, not derived",
			scan.Status, scan.Basis, BoundTrusted)
	}
	if !strings.Contains(scan.Basis, "wf:len") {
		t.Errorf("Scan's basis %q does not name the declared //wf:len fact", scan.Basis)
	}
	if scan.Poly["n"] < 1 {
		t.Errorf("Scan certified %s, want the //wf:len parameter n", scan.Bound)
	}
}

func keysOf(m map[string]OpCert) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
