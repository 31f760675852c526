package wfcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// specMethods are the methods of seqspec.State and seqspec.Object whose
// determinism the universal construction relies on: replays run Apply over
// logged operations on every process independently, so any nondeterminism
// forks the replicas' states silently.
var stateMethods = map[string]bool{"Apply": true, "Clone": true, "Key": true}
var objectMethods = map[string]bool{"Init": true, "ReadOnly": true, "Name": true}

// nondetPackages are packages whose calls make a transition function
// nondeterministic across replays.
var nondetPackages = map[string]string{
	"time":         "reads the clock",
	"math/rand":    "draws randomness",
	"math/rand/v2": "draws randomness",
}

// specPass finds, in any package that defines implementations of
// seqspec.State or seqspec.Object (the seqspec package itself included),
// the transition methods of those implementations, and flags constructs
// that break replay determinism: clock and randomness calls, goroutine
// launches, channel operations, package-level state mutation, and map
// iteration feeding output without a subsequent sort.
type specPass struct {
	*run
	p                    *Package
	stateIface, objIface *types.Interface
	roots                []*ast.FuncDecl
	visited              map[*ast.FuncDecl]bool
}

// newSpecPass prepares the purity audit of p; nil when p can define no
// spec implementation.
func newSpecPass(r *run, p *Package) *specPass {
	state, object := seqspecInterfaces(p)
	if state == nil && object == nil {
		return nil
	}
	return &specPass{run: r, p: p, stateIface: state, objIface: object, visited: make(map[*ast.FuncDecl]bool)}
}

// root collects fd when it is a transition method of a spec implementation.
func (s *specPass) root(fd *ast.FuncDecl) {
	if s == nil || fd.Recv == nil {
		return
	}
	fn, ok := s.p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	ptr := fn.Type().(*types.Signature).Recv().Type()
	if _, ok := ptr.(*types.Pointer); !ok {
		ptr = types.NewPointer(ptr)
	}
	isState := s.stateIface != nil && types.Implements(ptr, s.stateIface)
	isObject := s.objIface != nil && types.Implements(ptr, s.objIface)
	if (isState && stateMethods[fd.Name.Name]) || (isObject && objectMethods[fd.Name.Name]) {
		s.roots = append(s.roots, fd)
	}
}

// audit scans every collected transition method and, transitively, the
// same-package helpers they call.
func (s *specPass) audit() {
	if s == nil {
		return
	}
	for _, fd := range s.roots {
		s.visit(fd)
	}
}

// seqspecInterfaces locates the State and Object interfaces of a seqspec
// package among this package and its direct imports; nil, nil when absent
// (then nothing here can be a spec implementation).
func seqspecInterfaces(p *Package) (state, object *types.Interface) {
	lookup := func(tp *types.Package) {
		if tp == nil || (tp.Name() != "seqspec" && !strings.HasSuffix(tp.Path(), "/seqspec")) {
			return
		}
		if obj, ok := tp.Scope().Lookup("State").(*types.TypeName); ok && state == nil {
			state, _ = obj.Type().Underlying().(*types.Interface)
		}
		if obj, ok := tp.Scope().Lookup("Object").(*types.TypeName); ok && object == nil {
			object, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	lookup(p.TPkg)
	if p.TPkg != nil {
		for _, imp := range p.TPkg.Imports() {
			lookup(imp)
		}
	}
	return state, object
}

// visit scans one transition function and, transitively, the same-package
// helpers it calls.
func (s *specPass) visit(fd *ast.FuncDecl) {
	if s.visited[fd] {
		return
	}
	s.visited[fd] = true

	// The last sort call, for suppressing collect-then-sort map ranges.
	lastSort := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if f := calleeFunc(s.p, call); f != nil && f.Pkg() != nil && (f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices") {
				lastSort = max(lastSort, call.Pos())
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.flag(fd, n.Pos(), "launches a goroutine: replays must be single-threaded and repeatable")
		case *ast.SendStmt:
			s.flag(fd, n.Pos(), "channel send: transition functions must not communicate")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.flag(fd, n.Pos(), "channel receive: transition functions must not communicate")
			}
		case *ast.SelectStmt:
			s.flag(fd, n.Pos(), "select: transition functions must not communicate")
		case *ast.CallExpr:
			if f := calleeFunc(s.p, n); f != nil {
				if f.Pkg() != nil {
					path := f.Pkg().Path()
					// Methods of time values (UnixNano, Sub, ...) are pure
					// conversions; the clock reads are time's package-level
					// functions. rand methods all draw from the generator.
					recv := f.Type().(*types.Signature).Recv()
					if why, ok := nondetPackages[path]; ok && (recv == nil || path != "time") {
						s.flag(fd, n.Pos(), fmt.Sprintf("calls %s: %s, so replays diverge", f.FullName(), why))
					}
				}
				if target := s.prog.FuncOf(f); target != nil && target.Pkg == s.p {
					s.visit(target.Decl)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.checkGlobalWrite(fd, lhs)
			}
		case *ast.IncDecStmt:
			s.checkGlobalWrite(fd, n.X)
		case *ast.RangeStmt:
			s.checkMapRange(fd, n, lastSort)
		}
		return true
	})
}

// checkGlobalWrite flags assignments whose target resolves to a
// package-level variable.
func (s *specPass) checkGlobalWrite(fd *ast.FuncDecl, lhs ast.Expr) {
	var obj types.Object
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj = s.p.Info.Uses[e]
		if obj == nil {
			obj = s.p.Info.Defs[e]
		}
	case *ast.SelectorExpr:
		if fieldOf(s.p, e) != nil {
			return // field of some value; receiver mutation is the point
		}
		obj = s.p.Info.Uses[e.Sel]
	default:
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		s.flag(fd, lhs.Pos(), fmt.Sprintf("mutates package-level variable %s: state must live in the receiver", v.Name()))
	}
}

// checkMapRange flags map iterations whose body feeds output (append, or
// writer calls) unless the function sorts afterwards: Go randomizes map
// order, so unsorted iteration makes Apply/Key nondeterministic. Pure folds
// (min/max scans, map-to-map copies) are order-insensitive and pass.
func (s *specPass) checkMapRange(fd *ast.FuncDecl, rng *ast.RangeStmt, lastSort token.Pos) {
	t := s.p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	sink := token.NoPos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fun.Name == "append" {
				sink = call.Pos()
			}
		case *ast.SelectorExpr:
			if strings.HasPrefix(fun.Sel.Name, "Write") || strings.HasPrefix(fun.Sel.Name, "Fprint") {
				sink = call.Pos()
			}
		}
		return sink == token.NoPos
	})
	if sink.IsValid() && lastSort <= rng.Pos() {
		s.flag(fd, sink,
			"map iteration order feeds output and nothing sorts afterwards: iterate a sorted key slice instead")
	}
}

// flag records a purity finding against the transition method fd.
func (s *specPass) flag(fd *ast.FuncDecl, pos token.Pos, msg string) {
	s.report(s.p, "specpure", pos, "%s (in spec function %s)", msg, fd.Name.Name)
}
