package wfcheck

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Symbolic step-bound certification: wait-freedom is a quantitative promise
// — every operation completes within N(n) of its own steps — and this pass
// computes what that bound actually is, per exported façade operation, as a
// polynomial over the tree's named parameters (n processes, k snapshot
// interval, S shards, B help-spin budget, g GC interval, ...). Loop bounds
// compose multiplicatively into their bodies and sequentially by addition
// through the whole-program call graph; interface dispatches resolve
// through //wf:steps contracts or the termwise maximum over in-module
// implementations. The sources of symbolic facts are:
//
//   - //wf:param <name> on a const or field: its value is that parameter.
//   - //wf:len <name> on a slice field: its length is that parameter.
//   - //wf:steps <expr> on a function, interface method, or func-typed
//     field: calls are charged the declared polynomial instead of walking
//     the callee (the cost-model boundary; seqspec transitions are one step
//     in the paper's model, declared exactly this way).
//   - a leading [expr] bracket on a loop-line wf:bounded / wf:lockfree
//     directive: the loop's declared symbolic trip count (for walks whose
//     bound is a protocol argument, and for amortized lock-free loops).
//
// Everything machine-derived (constant trips, counted loops against
// wf:param bounds, ranges over wf:len slices or arrays) composes as
// verified; declared facts compose as trusted; a loop or call with no
// finite symbolic bound poisons its operation to unbounded, which the
// symbound analyzer reports as an error for façade-reachable operations.
// Standard-library calls are the tool's trusted boundary, charged one step.

// BoundUnbounded marks an operation with no finite symbolic certificate.
// (Declared alongside the boundcert verdicts; the cost algebra shares the
// BoundStatus vocabulary.)
const BoundUnbounded BoundStatus = "unbounded"

// Poly is a step polynomial with non-negative integer coefficients over
// named parameters. Keys are "·"-joined sorted parameter multisets: "" is
// the constant term, "k·n" the n·k cross term.
type Poly map[string]int64

// polyConst returns the constant polynomial c.
func polyConst(c int64) Poly {
	if c == 0 {
		return Poly{}
	}
	return Poly{"": c}
}

// polyParam returns the polynomial consisting of one bare parameter.
func polyParam(name string) Poly { return Poly{name: 1} }

// Clone copies p.
func (p Poly) Clone() Poly {
	out := make(Poly, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	out := p.Clone()
	for k, v := range q {
		out[k] += v
	}
	return out
}

// Mul returns p × q: term pairs multiply, parameter multisets merge.
func (p Poly) Mul(q Poly) Poly {
	out := Poly{}
	for k1, v1 := range p {
		for k2, v2 := range q {
			out[mulKey(k1, k2)] += v1 * v2
		}
	}
	return out
}

// Max returns the termwise maximum of p and q — the sound upper bound for
// an either-or, used for interface dispatch over several implementations.
func (p Poly) Max(q Poly) Poly {
	out := p.Clone()
	for k, v := range q {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// mulKey merges two sorted term keys into one sorted multiset key.
func mulKey(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	parts := append(strings.Split(a, "·"), strings.Split(b, "·")...)
	sort.Strings(parts)
	return strings.Join(parts, "·")
}

// Params lists the distinct parameter names appearing in p, sorted.
func (p Poly) Params() []string {
	seen := map[string]bool{}
	for k := range p {
		if k == "" {
			continue
		}
		for _, f := range strings.Split(k, "·") {
			seen[f] = true
		}
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Eval instantiates the polynomial with concrete parameter values — the
// runtime cross-check's half of the contract. Every parameter must be
// supplied.
func (p Poly) Eval(vals map[string]int64) (int64, error) {
	var total int64
	for k, c := range p {
		term := c
		if k != "" {
			for _, f := range strings.Split(k, "·") {
				v, ok := vals[f]
				if !ok {
					return 0, fmt.Errorf("no value for parameter %s", f)
				}
				term *= v
			}
		}
		total += term
	}
	return total, nil
}

// String renders the polynomial in O-notation: coefficients dropped,
// constant term absorbed unless it is the whole polynomial, terms ordered
// by degree then name.
func (p Poly) String() string {
	var keys []string
	for k, c := range p {
		if k == "" || c == 0 {
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "O(1)"
	}
	sort.Slice(keys, func(i, j int) bool {
		di, dj := strings.Count(keys[i], "·"), strings.Count(keys[j], "·")
		if di != dj {
			return di > dj
		}
		return keys[i] < keys[j]
	})
	return "O(" + strings.Join(keys, " + ") + ")"
}

// parseSteps parses a //wf:steps (or [bracket]) expression — parameter
// identifiers, non-negative integer literals, +, *, parentheses — into its
// polynomial.
func parseSteps(src string) (Poly, error) {
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("empty steps expression")
	}
	e, err := parser.ParseExpr(src)
	if err != nil {
		return nil, fmt.Errorf("unparsable steps expression %q", src)
	}
	return polyOfExpr(e)
}

// polyOfExpr evaluates a parsed steps expression in the +,* algebra.
func polyOfExpr(e ast.Expr) (Poly, error) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return polyOfExpr(e.X)
	case *ast.Ident:
		return polyParam(e.Name), nil
	case *ast.BasicLit:
		if e.Kind != token.INT {
			return nil, fmt.Errorf("steps literal %s is not an integer", e.Value)
		}
		v, err := strconv.ParseInt(e.Value, 0, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("steps literal %s is not a non-negative int64", e.Value)
		}
		return polyConst(v), nil
	case *ast.BinaryExpr:
		x, err := polyOfExpr(e.X)
		if err != nil {
			return nil, err
		}
		y, err := polyOfExpr(e.Y)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case token.ADD:
			return x.Add(y), nil
		case token.MUL:
			return x.Mul(y), nil
		}
		return nil, fmt.Errorf("steps operator %s is outside the +,* algebra", e.Op)
	}
	return nil, fmt.Errorf("steps term %s is outside the ident/int/+/* algebra", types.ExprString(e))
}

// symCost is one computed symbolic cost: the polynomial, how it is known
// (verified: machine-derived; trusted: rests on declared wf:steps /
// wf:param / wf:len / [bracket] facts; unbounded: no finite symbolic
// bound), and the first note explaining the weakest link.
type symCost struct {
	poly   Poly
	status BoundStatus
	note   string
}

// statusRank orders certification statuses from strongest to weakest.
func statusRank(s BoundStatus) int {
	switch s {
	case BoundVerified:
		return 0
	case BoundTrusted:
		return 1
	}
	return 2
}

// mergeCosts sums polynomials and keeps the weakest status with its note.
func mergeCosts(costs ...symCost) symCost {
	out := symCost{poly: Poly{}, status: BoundVerified}
	for _, c := range costs {
		if statusRank(c.status) > statusRank(out.status) {
			out.status, out.note = c.status, c.note
		}
		if c.poly != nil {
			out.poly = out.poly.Add(c.poly)
		}
	}
	return out
}

// costEngine computes per-function symbolic step costs over the program
// call graph, memoized per declaration.
type costEngine struct {
	prog   *Program
	memo   map[*ast.FuncDecl]symCost
	inwork map[*ast.FuncDecl]bool
}

// newCostEngine builds a cost engine over the program.
func newCostEngine(prog *Program) *costEngine {
	return &costEngine{prog: prog, memo: make(map[*ast.FuncDecl]symCost), inwork: make(map[*ast.FuncDecl]bool)}
}

// funcCost bounds one function: a declared //wf:steps wins, mode directives
// decide the boundaries (wf:bounded is one trusted step, wf:blocking and
// wf:lockfree have no step bound), and otherwise the body is walked —
// recursion has no symbolic bound by construction.
func (e *costEngine) funcCost(pf *ProgFunc) symCost {
	if c, ok := e.memo[pf.Decl]; ok {
		return c
	}
	if e.inwork[pf.Decl] {
		return symCost{status: BoundUnbounded, note: fmt.Sprintf("recursion through %s; break the cycle with //wf:steps", pf.Decl.Name.Name)}
	}
	obj := pf.Pkg.Info.Defs[pf.Decl.Name]
	if expr, ok := e.prog.steps[obj]; ok {
		poly, err := parseSteps(expr)
		if err != nil {
			poly = polyConst(1) // annot already reported the parse error
		}
		c := symCost{poly: poly, status: BoundTrusted, note: fmt.Sprintf("declared //wf:steps %s on %s", expr, pf.Decl.Name.Name)}
		e.memo[pf.Decl] = c
		return c
	}
	d := pf.Mode()
	switch d.Mode {
	case ModeBlocking:
		c := symCost{status: BoundUnbounded, note: fmt.Sprintf("%s is wf:blocking (%s)", pf.Decl.Name.Name, d.Arg)}
		e.memo[pf.Decl] = c
		return c
	case ModeLockFree:
		c := symCost{status: BoundUnbounded, note: fmt.Sprintf("%s is wf:lockfree (%s): retries are unbounded for this process", pf.Decl.Name.Name, d.Arg)}
		e.memo[pf.Decl] = c
		return c
	case ModeBounded:
		c := symCost{poly: polyConst(1), status: BoundTrusted, note: fmt.Sprintf("wf:bounded boundary %s (%s)", pf.Decl.Name.Name, d.Arg)}
		e.memo[pf.Decl] = c
		return c
	}
	e.inwork[pf.Decl] = true
	body := e.nodeCost(pf, pf.Decl.Body)
	delete(e.inwork, pf.Decl)
	c := mergeCosts(symCost{poly: polyConst(1), status: BoundVerified}, body)
	e.memo[pf.Decl] = c
	return c
}

// nodeCost sums the symbolic cost of everything under n: loops multiply
// their trip counts into their bodies, calls charge the callee, function
// literals are charged at their site. Branch arms are summed — a sound, if
// loose, upper bound.
func (e *costEngine) nodeCost(pf *ProgFunc, n ast.Node) symCost {
	total := symCost{poly: Poly{}, status: BoundVerified}
	if n == nil {
		return total
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt:
			total = mergeCosts(total, e.forCost(pf, m))
			return false
		case *ast.RangeStmt:
			total = mergeCosts(total, e.rangeCost(pf, m))
			return false
		case *ast.CallExpr:
			total = mergeCosts(total, e.callCost(pf, m))
			return true // descend: arguments may hold nested calls and literals
		case *ast.FuncLit:
			total = mergeCosts(total, e.nodeCost(pf, m.Body))
			return false
		}
		return true
	})
	return total
}

// forCost is trip × (1 + per-iteration cost) + the init statement's cost.
func (e *costEngine) forCost(pf *ProgFunc, loop *ast.ForStmt) symCost {
	trip := e.tripCount(pf, loop)
	if trip.status == BoundUnbounded {
		return trip
	}
	iter := mergeCosts(symCost{poly: polyConst(1), status: BoundVerified},
		e.nodeCost(pf, loop.Cond), e.nodeCost(pf, loop.Post), e.nodeCost(pf, loop.Body))
	out := mergeCosts(trip, iter, e.nodeCost(pf, loop.Init))
	out.poly = trip.poly.Mul(iter.poly)
	if loop.Init != nil {
		out.poly = out.poly.Add(e.nodeCost(pf, loop.Init).poly)
	}
	return out
}

// rangeCost is trip × (1 + body cost) + the operand's evaluation cost.
func (e *costEngine) rangeCost(pf *ProgFunc, loop *ast.RangeStmt) symCost {
	trip := e.tripCount(pf, loop)
	if trip.status == BoundUnbounded {
		return trip
	}
	iter := mergeCosts(symCost{poly: polyConst(1), status: BoundVerified}, e.nodeCost(pf, loop.Body))
	out := mergeCosts(trip, iter, e.nodeCost(pf, loop.X))
	out.poly = trip.poly.Mul(iter.poly).Add(e.nodeCost(pf, loop.X).poly)
	return out
}

// shortAt renders a node's position as "file.go:line" for basis notes.
func shortAt(p *Package, pos token.Pos) string {
	pp := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(pp.Filename), pp.Line)
}

// tripCount bounds a loop's iteration count symbolically. A [expr] bracket
// on the loop's directive is the declared answer; otherwise the boundcert
// shape classes are symbolized: counted loops from zero against a constant
// or //wf:param bound, ranges over arrays, constants, or //wf:len slices.
func (e *costEngine) tripCount(pf *ProgFunc, n ast.Node) symCost {
	p := pf.Pkg
	at := shortAt(p, n.Pos())
	if d := p.Annots.LoopDirective(n.Pos()); d != nil {
		if d.Steps != "" {
			poly, err := parseSteps(d.Steps)
			if err != nil {
				return symCost{status: BoundUnbounded, note: fmt.Sprintf("bad [steps] bracket at %s", at)}
			}
			return symCost{poly: poly, status: BoundTrusted, note: fmt.Sprintf("declared [%s] loop bound at %s", d.Steps, at)}
		}
		if d.Mode == ModeLockFree {
			return symCost{status: BoundUnbounded, note: fmt.Sprintf("lock-free retry loop at %s (declare an amortized [steps] bracket to bound it)", at)}
		}
	}
	switch loop := n.(type) {
	case *ast.RangeStmt:
		return e.rangeTrip(pf, loop, at)
	case *ast.ForStmt:
		if loop.Cond == nil {
			return symCost{status: BoundUnbounded, note: fmt.Sprintf("condition-less loop at %s needs a [steps] bracket", at)}
		}
		if st, _ := classifyCounted(p, loop); st == BoundVerified {
			if bound, extra, ok := countedBound(loop); ok {
				if bp := e.boundPoly(p, bound, at); bp.status != BoundUnbounded {
					bp.poly = bp.poly.Add(polyConst(extra))
					return bp
				}
			}
		}
	}
	return symCost{status: BoundUnbounded, note: fmt.Sprintf("loop at %s has no symbolic trip count (bound it with a //wf:param value or a [steps] bracket)", at)}
}

// countedBound extracts the bound expression of the canonical counted
// shape `for i := c; i < B; i++` (c a non-negative constant), with extra=1
// for a <= comparison. The caller has already checked classifyCounted, so
// the step and bound-stability guarantees hold.
func countedBound(loop *ast.ForStmt) (bound ast.Expr, extra int64, ok bool) {
	init, isAssign := loop.Init.(*ast.AssignStmt)
	if !isAssign || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return nil, 0, false
	}
	iv, isIdent := init.Lhs[0].(*ast.Ident)
	lit, isLit := ast.Unparen(init.Rhs[0]).(*ast.BasicLit)
	if !isIdent || !isLit || lit.Kind != token.INT {
		return nil, 0, false
	}
	if c, err := strconv.ParseInt(lit.Value, 0, 64); err != nil || c < 0 {
		return nil, 0, false
	}
	post, isInc := loop.Post.(*ast.IncDecStmt)
	if !isInc || post.Tok != token.INC || types.ExprString(ast.Unparen(post.X)) != iv.Name {
		return nil, 0, false
	}
	cond, isCmp := ast.Unparen(loop.Cond).(*ast.BinaryExpr)
	if !isCmp || types.ExprString(ast.Unparen(cond.X)) != iv.Name {
		return nil, 0, false
	}
	switch cond.Op {
	case token.LSS:
		return cond.Y, 0, true
	case token.LEQ:
		return cond.Y, 1, true
	}
	return nil, 0, false
}

// rangeTrip symbolizes a range operand's length.
func (e *costEngine) rangeTrip(pf *ProgFunc, loop *ast.RangeStmt, at string) symCost {
	p := pf.Pkg
	if t := p.Info.TypeOf(loop.X); t != nil {
		switch u := t.Underlying().(type) {
		case *types.Array:
			return symCost{poly: polyConst(u.Len()), status: BoundVerified}
		case *types.Pointer:
			if arr, ok := u.Elem().Underlying().(*types.Array); ok {
				return symCost{poly: polyConst(arr.Len()), status: BoundVerified}
			}
		case *types.Basic:
			if fa := e.fieldAnnOfExpr(p, loop.X); fa != nil && fa.Param != "" {
				return symCost{poly: polyParam(fa.Param), status: BoundTrusted, note: fmt.Sprintf("declared //wf:param %s range at %s", fa.Param, at)}
			}
			if tv, ok := p.Info.Types[loop.X]; ok && tv.Value != nil {
				if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v >= 0 {
					return symCost{poly: polyConst(v), status: BoundVerified}
				}
			}
		case *types.Slice, *types.Map:
			if fa := e.fieldAnnOfExpr(p, loop.X); fa != nil && fa.Len != "" {
				return symCost{poly: polyParam(fa.Len), status: BoundTrusted, note: fmt.Sprintf("declared //wf:len %s on %s (%s)", fa.Len, types.ExprString(loop.X), at)}
			}
		case *types.Chan:
			return symCost{status: BoundUnbounded, note: fmt.Sprintf("range over a channel at %s", at)}
		case *types.Signature:
			return symCost{status: BoundUnbounded, note: fmt.Sprintf("range over a function iterator at %s", at)}
		}
	}
	return symCost{status: BoundUnbounded, note: fmt.Sprintf("range at %s has no symbolic length (annotate the operand field with //wf:len or add a [steps] bracket)", at)}
}

// boundPoly symbolizes a loop-bound expression: a //wf:param const or
// field, a compile-time constant, or len/cap of a //wf:len slice field or
// an array. The param check runs first — a parameterized constant's point
// is that its value is one instance of the parameter.
func (e *costEngine) boundPoly(p *Package, expr ast.Expr, at string) symCost {
	expr = ast.Unparen(expr)
	if fa := e.fieldAnnOfExpr(p, expr); fa != nil && fa.Param != "" {
		return symCost{poly: polyParam(fa.Param), status: BoundTrusted, note: fmt.Sprintf("declared //wf:param %s bound at %s", fa.Param, at)}
	}
	if tv, ok := p.Info.Types[expr]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v >= 0 {
			return symCost{poly: polyConst(v), status: BoundVerified}
		}
	}
	if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && (id.Name == "len" || id.Name == "cap") {
			arg := ast.Unparen(call.Args[0])
			if t := p.Info.TypeOf(arg); t != nil {
				if arr, isArr := t.Underlying().(*types.Array); isArr {
					return symCost{poly: polyConst(arr.Len()), status: BoundVerified}
				}
			}
			if fa := e.fieldAnnOfExpr(p, arg); fa != nil && fa.Len != "" {
				return symCost{poly: polyParam(fa.Len), status: BoundTrusted, note: fmt.Sprintf("declared //wf:len %s bound at %s", fa.Len, at)}
			}
		}
	}
	return symCost{status: BoundUnbounded}
}

// fieldAnnOfExpr resolves the field/const annotation governing expr — an
// identifier, a field selection, or a qualified identifier — wherever in
// the module it is declared.
func (e *costEngine) fieldAnnOfExpr(p *Package, expr ast.Expr) *FieldAnn {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.prog.fields[p.Info.Uses[x]]
	case *ast.SelectorExpr:
		if f := fieldOf(p, x); f != nil {
			return e.prog.fields[f]
		}
		return e.prog.fields[p.Info.Uses[x.Sel]]
	}
	return nil
}

// callCost charges one call site: conversions and builtins are free,
// declared //wf:steps (on the callee, an interface contract, or a
// func-typed field) wins, wf:bounded contracts are one trusted step,
// interface dispatch without a contract takes the termwise max over
// implementations, module functions compose their own cost, and the
// standard library is the trusted boundary at one step.
func (e *costEngine) callCost(pf *ProgFunc, call *ast.CallExpr) symCost {
	p := pf.Pkg
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return symCost{poly: Poly{}, status: BoundVerified}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			return symCost{poly: Poly{}, status: BoundVerified}
		}
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		if fa := e.fieldAnnOfExpr(p, call.Fun); fa != nil && fa.Steps != "" {
			poly, err := parseSteps(fa.Steps)
			if err != nil {
				poly = polyConst(1)
			}
			return symCost{poly: poly, status: BoundTrusted, note: fmt.Sprintf("declared //wf:steps %s on the function value %s", fa.Steps, types.ExprString(call.Fun))}
		}
		return symCost{poly: polyConst(1), status: BoundTrusted,
			note: fmt.Sprintf("dynamic call at %s charged one step (no //wf:steps on the function value)", shortAt(p, call.Pos()))}
	}
	if expr, ok := e.prog.steps[fn]; ok {
		poly, err := parseSteps(expr)
		if err != nil {
			poly = polyConst(1)
		}
		return symCost{poly: poly, status: BoundTrusted, note: fmt.Sprintf("declared //wf:steps %s on %s", expr, fn.Name())}
	}
	if isInterfaceMethod(fn) {
		if d := e.prog.contracts[fn]; d != nil {
			switch d.Mode {
			case ModeBounded:
				return symCost{poly: polyConst(1), status: BoundTrusted, note: fmt.Sprintf("interface contract wf:bounded on %s", fn.Name())}
			case ModeBlocking, ModeLockFree:
				return symCost{status: BoundUnbounded, note: fmt.Sprintf("interface contract %s on %s", d.Mode, fn.Name())}
			}
		}
		impls := e.prog.Implementations(fn)
		if len(impls) == 0 {
			return symCost{status: BoundUnbounded, note: fmt.Sprintf("dynamic dispatch on %s with no contract and no in-module implementation", fn.Name())}
		}
		out := symCost{poly: Poly{}, status: BoundVerified}
		for _, impl := range impls {
			c := e.funcCost(impl)
			if statusRank(c.status) > statusRank(out.status) {
				out.status, out.note = c.status, c.note
			}
			if c.status == BoundUnbounded {
				return out
			}
			out.poly = out.poly.Max(c.poly)
		}
		return out
	}
	if callee := e.prog.FuncOf(fn); callee != nil {
		return e.funcCost(callee)
	}
	return symCost{poly: polyConst(1), status: BoundVerified}
}

// OpCert is one exported operation's worst-case symbolic step certificate.
type OpCert struct {
	Op     string // "core.Universal.Invoke", "contract core.FetchAndCons.Observe"
	Pos    token.Position
	Poly   Poly
	Bound  string      // rendered O-form, "unbounded" when no certificate
	Status BoundStatus // verified | trusted | unbounded
	Basis  string      // the weakest link behind the status
}

// analyzeSymbolic certifies every exported operation reachable from the
// module's façade package: the façade's type aliases and constructor result
// types seed a closure over exported methods' result types, and each
// reachable concrete type's exported methods get a certificate. Interface
// types contribute their //wf:steps contract rows. seqspec types are
// excluded — sequential specifications are unit-cost in the paper's model,
// which their //wf:steps 1 contracts declare at the dispatch sites.
// Constructors and other setup functions are construction-time, not
// operations, and are not certified. An operation with no finite symbolic
// bound is a symbound error.
func (r *run) analyzeSymbolic(root *Package) []OpCert {
	eng := newCostEngine(r.prog)
	modPath := root.Path
	inModule := func(pkg *types.Package) bool {
		return pkg != nil && (pkg.Path() == modPath || strings.HasPrefix(pkg.Path(), modPath+"/"))
	}
	seen := map[*types.Named]bool{}
	var queue []*types.Named
	add := func(t types.Type) {
		//wf:bounded strips one pointer or slice constructor per iteration, and Go types nest finitely
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			}
			break
		}
		n, ok := t.(*types.Named)
		if !ok || seen[n] || !inModule(n.Obj().Pkg()) {
			return
		}
		seen[n] = true
		queue = append(queue, n)
	}

	for _, f := range root.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if tn, ok := root.Info.Defs[ts.Name].(*types.TypeName); ok {
						add(tn.Type())
					}
				}
			case *ast.FuncDecl:
				if decl.Recv != nil || !decl.Name.IsExported() {
					continue
				}
				if fn, ok := root.Info.Defs[decl.Name].(*types.Func); ok {
					res := fn.Type().(*types.Signature).Results()
					for i := 0; i < res.Len(); i++ {
						add(res.At(i).Type())
					}
				}
			}
		}
	}

	var certs []OpCert
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		pkg := n.Obj().Pkg()
		if strings.HasSuffix(pkg.Path(), "/seqspec") {
			continue // unit-cost sequential specifications, excluded by design
		}
		short := pkg.Name()
		if iface, ok := n.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if !m.Exported() {
					continue
				}
				expr, ok := r.prog.steps[m]
				if !ok {
					continue // no contract: concrete implementations certify on their own
				}
				poly, err := parseSteps(expr)
				if err != nil {
					poly = polyConst(1)
				}
				certs = append(certs, OpCert{
					Op:  fmt.Sprintf("contract %s.%s.%s", short, n.Obj().Name(), m.Name()),
					Pos: root.Fset.Position(m.Pos()), Poly: poly, Bound: poly.String(),
					Status: BoundTrusted, Basis: fmt.Sprintf("interface contract //wf:steps %s", expr),
				})
			}
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			if !m.Exported() {
				continue
			}
			pf := r.prog.FuncOf(m)
			if pf == nil {
				continue
			}
			res := m.Type().(*types.Signature).Results()
			for j := 0; j < res.Len(); j++ {
				add(res.At(j).Type())
			}
			c := eng.funcCost(pf)
			cert := OpCert{
				Op:  fmt.Sprintf("%s.%s.%s", short, n.Obj().Name(), m.Name()),
				Pos: pf.Pkg.Fset.Position(pf.Decl.Pos()), Poly: c.poly,
				Status: c.status, Basis: c.note,
			}
			if c.status == BoundUnbounded {
				cert.Bound = "unbounded"
				r.report(pf.Pkg, "symbound", pf.Decl.Pos(), "no finite symbolic step certificate for %s: %s", cert.Op, c.note)
			} else {
				cert.Bound = c.poly.String()
				if cert.Basis == "" {
					cert.Basis = "machine-derived throughout"
				}
			}
			certs = append(certs, cert)
		}
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Op < certs[j].Op })
	return certs
}
