package wfcheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// boundcert certifies wf:bounded directives instead of taking them on
// faith. PR 2 trusted every manual bound; this pass statically verifies the
// loop shapes it can decide — constant trip counts, ranges over finite
// data, counted loops against a stable bound, and monotone counters with a
// threshold exit — and reports every directive as verified, trusted, or
// contradicted. A contradicted bound (the loop's condition mutates its own
// bound, or the "bounded" loop ranges over a channel) is an error: the
// paper's wait-freedom bound N(n) cannot rest on a bound the loop itself
// moves. wf:lockfree loop acknowledgments are surfaced alongside, so the
// bounds report shows every place the tree settles for lock-freedom.

// BoundStatus is boundcert's verdict on one directive.
type BoundStatus string

// Verdicts.
const (
	BoundVerified     BoundStatus = "verified"     // the engine proves the stated bound class
	BoundTrusted      BoundStatus = "trusted"      // manual argument accepted, not machine-checked
	BoundContradicted BoundStatus = "contradicted" // the loop's shape refutes the claim (error)
	BoundLockFree     BoundStatus = "lockfree"     // acknowledged lock-free section, not a bound
)

// BoundRecord is one row of the bounds report.
type BoundRecord struct {
	Pos    token.Position
	Pkg    string // import path
	Scope  string // "package", "func F", or "loop in F"
	Status BoundStatus
	Arg    string // the directive's stated bound or reason
	Detail string // why the engine reached the verdict
}

// boundcert certifies every wf:bounded (and wf:lockfree) directive in a
// package: declaration-level directives are trusted boundaries by
// definition (declBound); loop-line directives are classified against the
// provable loop shapes as the per-function walk meets their loops
// (loopBound). A loop-line directive that attaches to no loop is an error —
// its suppression is silently lost otherwise (finishBounds).

// declBound records a declaration-level wf:bounded directive.
func (r *run) declBound(p *Package, scope string, d *Directive) {
	if d != nil && d.Mode == ModeBounded {
		r.res.Bounds = append(r.res.Bounds, BoundRecord{
			Pos: p.Fset.Position(d.Pos), Pkg: p.Path, Scope: scope,
			Status: BoundTrusted, Arg: d.Arg,
			Detail: "declaration-level bound: trusted simulation boundary",
		})
	}
}

// loopBound certifies the directive a loop claims, if any, and marks it
// attached.
func (r *run) loopBound(p *Package, fd *ast.FuncDecl, loop ast.Node, attached map[token.Pos]bool) {
	d := p.Annots.LoopDirective(loop.Pos())
	if d == nil {
		return
	}
	attached[d.Pos] = true
	rec := BoundRecord{
		Pos: p.Fset.Position(d.Pos), Pkg: p.Path, Scope: "loop in " + fd.Name.Name, Arg: d.Arg,
		Status: BoundLockFree, Detail: "acknowledged lock-free retry (progress-checked)",
	}
	if d.Mode != ModeLockFree {
		rec.Status, rec.Detail = classifyLoop(p, loop)
	}
	r.res.Bounds = append(r.res.Bounds, rec)
	if rec.Status == BoundContradicted {
		r.report(p, "boundcert", loop.Pos(), "wf:bounded (%s) is contradicted: %s", d.Arg, rec.Detail)
	}
}

// finishBounds closes a package's boundcert pass: it errors every
// loop-line directive no loop claimed, then orders the package's bounds
// records (those from index from on) by position.
func (r *run) finishBounds(p *Package, attached map[token.Pos]bool, from int) {
	for _, d := range p.Annots.loopDirectives() {
		if !attached[d.Pos] {
			r.report(p, "boundcert", d.Pos, "%s directive attaches to no loop (it must sit directly above the loop or trail on its line)", d.Mode)
		}
	}
	records := r.res.Bounds[from:]
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
}

// classifyLoop decides one wf:bounded loop directive. The provable classes
// trade completeness for decidability, like the analyzers themselves.
func classifyLoop(p *Package, n ast.Node) (BoundStatus, string) {
	switch loop := n.(type) {
	case *ast.RangeStmt:
		return classifyRange(p, loop)
	case *ast.ForStmt:
		if loop.Cond == nil {
			return classifyMonotone(p, loop)
		}
		return classifyCounted(p, loop)
	}
	return BoundTrusted, "unclassified loop form"
}

// classifyRange handles `range` loops: iteration over finite data is
// verified (the range expression is evaluated once, so the trip count is
// fixed at entry); channels refute any bound; function iterators and maps
// the body grows stay trusted.
func classifyRange(p *Package, loop *ast.RangeStmt) (BoundStatus, string) {
	t := p.Info.TypeOf(loop.X)
	if t == nil {
		return BoundTrusted, "range expression did not type-check"
	}
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return BoundContradicted, "ranges over a channel: trip count is another process's send count"
	case *types.Signature:
		return BoundTrusted, "range over a function iterator: trip count is the iterator's"
	case *types.Map:
		if writesExpr(p, loop.Body, types.ExprString(loop.X)) {
			return BoundTrusted, "range over a map the body writes: growth during iteration is unspecified"
		}
		return BoundVerified, "range over a map the body does not grow"
	case *types.Array:
		return BoundVerified, fmt.Sprintf("range over [%d]array", u.Len())
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			return BoundVerified, fmt.Sprintf("range over *[%d]array", arr.Len())
		}
		return BoundTrusted, "range over a pointer to non-array"
	case *types.Slice, *types.Basic:
		// Slices, strings and go1.22 integer ranges all fix the trip count
		// when the range expression is evaluated.
		return BoundVerified, "range over finite data: trip count fixed at loop entry"
	}
	return BoundTrusted, "unclassified range form"
}

// classifyCounted handles conditioned loops: `for i := a; i OP b; i++`
// (and the cond-only form with the step in the body) verifies when the
// bound side of the comparison is stable and the loop variable moves only
// toward it. A bound the body itself mutates is contradicted.
func classifyCounted(p *Package, loop *ast.ForStmt) (BoundStatus, string) {
	cond, ok := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !ok {
		return BoundTrusted, "loop condition is not a comparison"
	}
	var iter ast.Expr // the moving side
	var bound ast.Expr
	var up bool // counting up toward the bound
	switch cond.Op {
	case token.LSS, token.LEQ:
		iter, bound, up = cond.X, cond.Y, true
	case token.GTR, token.GEQ:
		iter, bound, up = cond.X, cond.Y, false
	case token.NEQ:
		return BoundTrusted, "!= exit condition: overshoot cannot be excluded statically"
	default:
		return BoundTrusted, "loop condition is not an ordered comparison"
	}
	if status, detail, ok := checkMovingSide(p, loop, iter, bound, up); ok {
		return status, detail
	}
	// The comparison's moving side never moves; maybe the roles are swapped
	// (e.g. `for lo < hi { hi-- }`).
	if status, detail, ok := checkMovingSide(p, loop, bound, iter, !up); ok {
		return status, detail
	}
	return BoundTrusted, "no guaranteed monotone step toward the bound"
}

// checkMovingSide verifies one orientation of a counted loop: iter must
// take a guaranteed strictly-monotone step toward bound every iteration —
// in the post statement, or as a top-level body statement no continue can
// skip — with no other write to it anywhere, and the bound must be stable.
// ok is false when iter has no guaranteed step, so the caller can try the
// swapped orientation.
func checkMovingSide(p *Package, loop *ast.ForStmt, iter, bound ast.Expr, up bool) (BoundStatus, string, bool) {
	iterStr := types.ExprString(ast.Unparen(iter))

	guaranteed := false // a toward-step that runs every iteration
	var stray []ast.Node
	classify := func(n ast.Node, sanctioned bool) {
		toward, isWrite := stepDirection(p, n, iterStr, up)
		if !isWrite {
			return
		}
		if toward && sanctioned {
			guaranteed = true
		} else {
			stray = append(stray, n)
		}
	}
	if loop.Post != nil {
		classify(loop.Post, true)
	}
	// Top-level body statements are guaranteed only if no continue can skip
	// them (continue re-enters the post statement, so post steps are safe).
	bodySanctioned := loop.Post == nil && !containsContinue(loop.Body)
	top := make(map[ast.Node]bool, len(loop.Body.List))
	for _, s := range loop.Body.List {
		top[s] = true
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n.(type) {
		case *ast.IncDecStmt, *ast.AssignStmt:
			classify(n, bodySanctioned && top[n])
		}
		return true
	})
	if !guaranteed {
		return "", "", false
	}
	if len(stray) > 0 {
		return BoundTrusted, fmt.Sprintf("%s is also written outside its guaranteed step", iterStr), true
	}
	if mutated, how := boundMutated(p, loop, bound); mutated {
		return BoundContradicted, how, true
	}
	if stable, why := stableBound(p, loop, bound); !stable {
		return BoundTrusted, why, true
	}
	return BoundVerified, fmt.Sprintf("counted loop: %s steps monotonically to %s", iterStr, types.ExprString(bound)), true
}

// stepDirection classifies one statement's effect on iterStr: isWrite
// reports that it writes it at all; toward reports a strictly-monotone
// constant step in the direction given by up (++/+= c for an increasing
// loop, --/-= c for a decreasing one). Anything else that writes the
// variable — plain assignment, non-constant or wrong-way step — is a write
// that is not toward, which disqualifies verification.
func stepDirection(p *Package, n ast.Node, iterStr string, up bool) (toward, isWrite bool) {
	switch s := n.(type) {
	case *ast.IncDecStmt:
		if types.ExprString(ast.Unparen(s.X)) != iterStr {
			return false, false
		}
		return (s.Tok == token.INC) == up, true
	case *ast.AssignStmt:
		hits := false
		for _, lhs := range s.Lhs {
			if types.ExprString(ast.Unparen(lhs)) == iterStr {
				hits = true
			}
		}
		if !hits {
			return false, false
		}
		if s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN || len(s.Lhs) != 1 {
			return false, true // plain or multi assignment: a reset
		}
		tv, ok := p.Info.Types[s.Rhs[0]]
		if !ok || tv.Value == nil {
			return false, true // non-constant step: direction unknown
		}
		sign := constant.Sign(tv.Value)
		if sign == 0 {
			return false, true // += 0 never moves
		}
		adds := (s.Tok == token.ADD_ASSIGN) == (sign > 0)
		return adds == up, true
	}
	return false, false
}

// boundMutated reports whether the loop body writes the bound expression
// itself — the contradiction class: `for i < n { n++ }`, or growing the
// slice measured by a len()/cap() bound.
func boundMutated(p *Package, loop *ast.ForStmt, bound ast.Expr) (bool, string) {
	bound = ast.Unparen(bound)
	target := types.ExprString(bound)
	if call, ok := bound.(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(call.Args) == 1 {
			target = types.ExprString(ast.Unparen(call.Args[0]))
		}
	}
	if writesExpr(p, loop.Body, target) {
		return true, fmt.Sprintf("the loop body writes %s, the loop's own bound", target)
	}
	return false, ""
}

// stableBound reports whether the bound expression re-evaluates to the same
// value every iteration, as far as the engine can tell: constants, idents
// and field selections the body does not write, and len/cap of such.
func stableBound(p *Package, loop *ast.ForStmt, bound ast.Expr) (bool, string) {
	bound = ast.Unparen(bound)
	if tv, ok := p.Info.Types[bound]; ok && tv.Value != nil {
		return true, ""
	}
	switch b := bound.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true, "" // boundMutated already checked body writes
	case *ast.CallExpr:
		if id, ok := ast.Unparen(b.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") && len(b.Args) == 1 {
			switch ast.Unparen(b.Args[0]).(type) {
			case *ast.Ident, *ast.SelectorExpr:
				return true, ""
			}
			return false, fmt.Sprintf("bound %s measures a compound expression", types.ExprString(bound))
		}
		return false, fmt.Sprintf("bound %s re-evaluates a call every iteration", types.ExprString(bound))
	}
	return false, fmt.Sprintf("bound %s is outside the stable classes", types.ExprString(bound))
}

// classifyMonotone handles condition-less loops: the verified class is a
// strictly monotone counter with a threshold exit — the body's first
// statement increments (or decrements) a counter, a top-level threshold
// check exits once the counter passes a stable bound, no continue can skip
// the check, and nothing else writes the counter. This is the shape of the
// protocol scan loops (internal/protocols), whose PR 2 bounds were trusted
// prose; the engine now proves them.
func classifyMonotone(p *Package, loop *ast.ForStmt) (BoundStatus, string) {
	if status, detail, ok := classifyWalk(p, loop); ok {
		return status, detail
	}
	stmts := loop.Body.List
	if len(stmts) < 2 {
		return BoundTrusted, "condition-less loop with no counter step"
	}
	inc, ok := stmts[0].(*ast.IncDecStmt)
	if !ok {
		return BoundTrusted, "condition-less loop does not open with a counter step"
	}
	counter := types.ExprString(ast.Unparen(inc.X))
	up := inc.Tok == token.INC

	// Find the top-level threshold exit, with no continue reachable first.
	var threshold *ast.IfStmt
	var bound ast.Expr
	for _, s := range stmts[1:] {
		ifs, isIf := s.(*ast.IfStmt)
		if isIf && ifs.Init == nil && ifs.Else == nil {
			if b, ok := thresholdExit(p, ifs, counter, up); ok {
				threshold, bound = ifs, b
				break
			}
		}
		if containsContinue(s) {
			return BoundTrusted, "a continue can skip the threshold check"
		}
	}
	if threshold == nil {
		return BoundTrusted, fmt.Sprintf("no top-level threshold exit on %s", counter)
	}
	// The counter must have exactly the one step: any other write could
	// reset it below the threshold.
	if writesExpr(p, &ast.BlockStmt{List: stmts[1:]}, counter) {
		return BoundTrusted, fmt.Sprintf("%s is written outside its monotone step", counter)
	}
	if mutated, how := boundMutated(p, loop, bound); mutated {
		return BoundContradicted, how
	}
	if stable, why := stableBound(p, loop, bound); !stable {
		return BoundTrusted, why
	}
	return BoundVerified, fmt.Sprintf("monotone counter: %s steps once per iteration and exits at %s", counter, types.ExprString(bound))
}

// classifyWalk proves the structural-walk class of condition-less loops:
// `for n := start; ; n = n.Rest()` (or `n = n.next`) whose first body
// statement exits on n == nil, where the post statement is the iterator's
// only write and the projection keeps the iterator's type. Every iteration
// either terminates at the nil check — which nothing can skip, it is the
// first statement — or strictly descends one link, so the trip count is the
// chain length at entry plus any links consed below during the walk; on a
// prepend-only structure (the decided log: Cons fixes rest at creation,
// sever only replaces it with nil) descent cannot cycle, which is the shape
// PR 6's gcSwing and the replay walks share. ok=false hands unclassified
// loops back to the monotone-counter class.
func classifyWalk(p *Package, loop *ast.ForStmt) (BoundStatus, string, bool) {
	init, isAssign := loop.Init.(*ast.AssignStmt)
	if !isAssign || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return "", "", false
	}
	iv, isIdent := init.Lhs[0].(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	iter := iv.Name
	post, isPost := loop.Post.(*ast.AssignStmt)
	if !isPost || post.Tok != token.ASSIGN || len(post.Lhs) != 1 || len(post.Rhs) != 1 ||
		types.ExprString(ast.Unparen(post.Lhs[0])) != iter {
		return "", "", false
	}
	if !isSelfProjection(p, post.Rhs[0], iv) {
		return "", "", false
	}
	if len(loop.Body.List) == 0 {
		return "", "", false
	}
	ifs, isIf := loop.Body.List[0].(*ast.IfStmt)
	if !isIf || ifs.Init != nil || ifs.Else != nil || !isNilExit(p, ifs, iter) {
		return "", "", false
	}
	// The post projection must be the iterator's only write: a body reset
	// could re-lift the iterator arbitrarily far up the chain.
	if writesExpr(p, loop.Body, iter) {
		return "", "", false
	}
	return BoundVerified,
		fmt.Sprintf("structural walk: %s descends one link per iteration via %s and nothing skips the nil exit",
			iter, types.ExprString(ast.Unparen(post.Rhs[0]))), true
}

// isSelfProjection reports whether rhs is a projection of the iterator that
// keeps its type — a zero-argument method call `n.Rest()` or a field read
// `n.next` — so each post step moves strictly down the structure.
func isSelfProjection(p *Package, rhs ast.Expr, iter *ast.Ident) bool {
	it := p.Info.TypeOf(iter)
	if it == nil {
		return false
	}
	rhs = ast.Unparen(rhs)
	var sel *ast.SelectorExpr
	switch e := rhs.(type) {
	case *ast.CallExpr:
		if len(e.Args) != 0 {
			return false
		}
		s, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		sel = s
	case *ast.SelectorExpr:
		sel = e
	default:
		return false
	}
	if types.ExprString(ast.Unparen(sel.X)) != iter.Name {
		return false
	}
	rt := p.Info.TypeOf(rhs)
	return rt != nil && types.Identical(rt, it)
}

// isNilExit reports whether ifs is `if iter == nil { ...; exit }`, where
// exit leaves the loop.
func isNilExit(p *Package, ifs *ast.IfStmt, iter string) bool {
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	x, y := ast.Unparen(cond.X), ast.Unparen(cond.Y)
	nilCheck := types.ExprString(x) == iter && isNilExpr(p, y) || types.ExprString(y) == iter && isNilExpr(p, x)
	return nilCheck && leavesLoop(ifs.Body)
}

// thresholdExit reports whether ifs is `if counter >= bound { exit }` (for
// an increasing counter; <= for a decreasing one), where exit leaves the
// loop. The counter side may be wrapped in a conversion
// (`int(v[4]) >= n`).
func thresholdExit(p *Package, ifs *ast.IfStmt, counter string, up bool) (ast.Expr, bool) {
	cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok {
		return nil, false
	}
	lhs := unwrapConversion(p, cond.X)
	rhs := unwrapConversion(p, cond.Y)
	var bound ast.Expr
	switch {
	case types.ExprString(lhs) == counter &&
		((up && (cond.Op == token.GEQ || cond.Op == token.GTR)) || (!up && (cond.Op == token.LEQ || cond.Op == token.LSS))):
		bound = cond.Y
	case types.ExprString(rhs) == counter &&
		((up && (cond.Op == token.LEQ || cond.Op == token.LSS)) || (!up && (cond.Op == token.GEQ || cond.Op == token.GTR))):
		bound = cond.X
	default:
		return nil, false
	}
	return bound, leavesLoop(ifs.Body)
}

// leavesLoop reports whether the block ends by leaving the loop around it:
// return, break, or panic (continue and goto do not count).
func leavesLoop(b *ast.BlockStmt) bool {
	if br, isBranch := lastStmt(b).(*ast.BranchStmt); isBranch {
		return br.Tok == token.BREAK
	}
	return endsInExit(b)
}

// unwrapConversion strips parens and a single type-conversion wrapper.
func unwrapConversion(p *Package, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return ast.Unparen(call.Args[0])
		}
	}
	return e
}

// containsContinue reports a continue statement anywhere under n that is
// not enclosed in a nested loop (where it would not re-enter this loop).
func containsContinue(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if m.(*ast.BranchStmt).Tok == token.CONTINUE {
				found = true
			}
		}
		return !found
	})
	return found
}

// writesExpr reports an assignment, step, append-reassignment or delete
// targeting the expression rendered as target (or an index/field path under
// it) anywhere in body.
func writesExpr(p *Package, body ast.Node, target string) bool {
	written := false
	hit := func(e ast.Expr) {
		s := types.ExprString(ast.Unparen(e))
		if s == target || strings.HasPrefix(s, target+"[") {
			written = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				hit(lhs)
			}
		case *ast.IncDecStmt:
			hit(s.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "delete" && len(s.Args) == 2 {
				hit(s.Args[0])
			}
		}
		return !written
	})
	return written
}
