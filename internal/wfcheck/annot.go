package wfcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Mode is the wait-freedom claim a directive makes.
type Mode int

// Modes, in increasing order of suspicion.
const (
	ModeNone     Mode = iota // no directive: not an entry point, but traversed if reached
	ModeWaitFree             // wf:waitfree — analyzed entry point
	ModeBounded              // wf:bounded — trusted manual boundedness argument
	ModeLockFree             // wf:lockfree — lock-free but not wait-free
	ModeBlocking             // wf:blocking — intentional; unreachable from wait-free code
)

// String names the mode as its directive spells it.
func (m Mode) String() string {
	switch m {
	case ModeWaitFree:
		return "wf:waitfree"
	case ModeBounded:
		return "wf:bounded"
	case ModeLockFree:
		return "wf:lockfree"
	case ModeBlocking:
		return "wf:blocking"
	}
	return "unannotated"
}

// Directive is one parsed wf: annotation.
type Directive struct {
	Mode Mode
	Arg  string // reason for wf:blocking/wf:lockfree, bound for wf:bounded
	// Steps is the symbolic trip count from an optional leading [expr]
	// bracket on a loop-line wf:bounded / wf:lockfree argument — the bound
	// the symbolic step algebra charges the loop. Empty when no bracket.
	Steps string
	Pos   token.Pos
}

// StepsAnn is a declared symbolic step bound (//wf:steps <expr>) on a
// function, interface method, or func-typed field: the cost the symbolic
// engine charges a call instead of walking the callee.
type StepsAnn struct {
	Expr string
	Pos  token.Pos
}

// FieldAnn collects the register-discipline and symbolic-bound annotations
// attached to one struct field or package-level const/var name.
type FieldAnn struct {
	// SingleWriter names the owner index identifier (//wf:singlewriter pid):
	// element stores through this field must index by that identifier.
	SingleWriter string
	// Monotone marks an atomic register whose stored values must be provably
	// non-decreasing (//wf:monotone).
	Monotone bool
	// ABAGuard records the reasoned ABA protection of a CAS target
	// (//wf:abaguard <reason>).
	ABAGuard string
	// Len names the parameter a slice field's length equals (//wf:len n).
	Len string
	// Param names the symbolic parameter this const or field's value is
	// (//wf:param g).
	Param string
	// Steps is a declared symbolic cost for calls through a func-typed field
	// (//wf:steps <expr>).
	Steps string
	Pos   token.Pos
}

// LineMark is one line-scoped directive: //wf:waiver <analyzer> <reason>
// (a reasoned exemption from one analyzer's findings on the line), or a
// service-tier discipline mark — //wf:ack (a client-visible
// acknowledgement), //wf:persist (a completed durability call), or
// //wf:owns <mechanism> (the shutdown edge of a go statement). A line
// directive no analyzer consumes is an error.
type LineMark struct {
	Verb string // "waiver", "ack", "persist" or "owns"
	Mech string // waiver: the analyzer; owns: the shutdown mechanism expression
	Note string // waiver: the reason; otherwise an optional free-text remainder
	Pos  token.Pos
	used bool
}

// Annotations holds every wf: directive parsed from a package's non-test
// files, plus any malformed-annotation errors.
type Annotations struct {
	// Pkg is the package-level default, from directives on package clauses.
	Pkg *Directive
	// Funcs maps annotated function declarations to their directives.
	Funcs map[*ast.FuncDecl]*Directive
	// Methods maps annotated interface-method names to their directives:
	// the method's contract, trusted at call sites that dispatch through
	// the interface. Without one, interface calls fan out to every
	// in-module implementation.
	Methods map[*ast.Ident]*Directive
	// Steps maps function declarations and interface-method names to their
	// declared symbolic step bounds.
	Steps map[*ast.Ident]*StepsAnn
	// Fields maps annotated struct-field and const/var names to their
	// register-discipline annotations.
	Fields map[*ast.Ident]*FieldAnn
	// Durable maps function declarations carrying //wf:durable — the
	// fsyncorder analyzer audits their commit-rename protocol — to the
	// directive's position.
	Durable map[*ast.FuncDecl]token.Pos
	// Errors reports conflicting, malformed or unknown directives.
	Errors []Diagnostic

	fset *token.FileSet
	// loopDirs records, per file and line, wf:bounded and wf:lockfree
	// directive comments that sit outside doc comments; a loop claims one if
	// the comment is on the line directly above it or trails on the loop's
	// own line. The boundcert pass checks that each of these attaches to a
	// loop.
	loopDirs map[string]map[int]*Directive
	// marks records //wf:waiver, //wf:ack, //wf:persist and //wf:owns
	// comments by file
	// and line; analyzers consume them through ConsumeMark, and UnusedMarks
	// reports the leftovers.
	marks map[string]map[int][]*LineMark
}

// Effective resolves the directive governing fd: its own annotation if
// present, the package-level default otherwise.
func (a *Annotations) Effective(fd *ast.FuncDecl) Directive {
	if d := a.Funcs[fd]; d != nil {
		return *d
	}
	if a.Pkg != nil {
		return *a.Pkg
	}
	return Directive{Mode: ModeNone}
}

// LoopDirective returns the wf:bounded or wf:lockfree directive claimed by
// a loop starting at pos (a directive comment directly above or on the same
// line), or nil.
func (a *Annotations) LoopDirective(pos token.Pos) *Directive {
	p := a.fset.Position(pos)
	lines := a.loopDirs[p.Filename]
	if d := lines[p.Line-1]; d != nil {
		return d
	}
	return lines[p.Line]
}

// loopDirectives yields every loop-line directive with its position, for
// the attachment check in boundcert.
func (a *Annotations) loopDirectives() []*Directive {
	var out []*Directive
	for _, lines := range a.loopDirs {
		for _, d := range lines {
			out = append(out, d)
		}
	}
	return out
}

// Waive consumes a waiver covering pos for the named analyzer — on the same
// line as the finding or the line directly above — and reports whether one
// was found. One waiver excuses every finding of its analyzer on its line.
func (a *Annotations) Waive(pos token.Position, analyzer string) bool {
	return a.lineMark(pos, func(m *LineMark) bool { return m.Verb == "waiver" && m.Mech == analyzer }) != nil
}

// ConsumeMark finds and consumes an unconsumed line mark of the given verb
// covering pos — trailing on the statement's own line or on the line
// directly above — and returns it, or nil. Mirrors the attachment rule of
// Waive and of loop-line directives.
func (a *Annotations) ConsumeMark(pos token.Position, verb string) *LineMark {
	return a.lineMark(pos, func(m *LineMark) bool { return m.Verb == verb && !m.used })
}

// lineMark returns the first match on pos's line or the line above it,
// marked used.
func (a *Annotations) lineMark(pos token.Position, match func(*LineMark) bool) *LineMark {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, m := range a.marks[pos.Filename][line] {
			if match(m) {
				m.used = true
				return m
			}
		}
	}
	return nil
}

// UnusedMarks returns every waiver and line mark no analyzer consumed, in
// position order. A leftover is an error: a dead waiver would silently
// excuse the next finding to appear on its line, and an //wf:ack that
// attaches to nothing would silently exempt the acknowledgement it meant
// to pin.
func (a *Annotations) UnusedMarks() []*LineMark {
	var out []*LineMark
	for _, lines := range a.marks {
		for _, ms := range lines {
			for _, m := range ms {
				if !m.used {
					out = append(out, m)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// extraDir is one parsed non-mode directive (wf:steps, wf:param, wf:len,
// wf:singlewriter, wf:monotone, wf:abaguard, wf:waiver, wf:durable, wf:ack,
// wf:persist, wf:owns). Attachment rules depend on the declaration kind and
// are enforced by the caller.
type extraDir struct {
	verb string
	arg  string
	pos  token.Pos
}

// parseAnnotations extracts wf: directives from the files' comments.
func parseAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{
		Funcs:    make(map[*ast.FuncDecl]*Directive),
		Methods:  make(map[*ast.Ident]*Directive),
		Steps:    make(map[*ast.Ident]*StepsAnn),
		Fields:   make(map[*ast.Ident]*FieldAnn),
		Durable:  make(map[*ast.FuncDecl]token.Pos),
		fset:     fset,
		loopDirs: make(map[string]map[int]*Directive),
		marks:    make(map[string]map[int][]*LineMark),
	}
	for _, f := range files {
		// Doc comment groups carry declaration-level directives; everything
		// else is a candidate loop-line directive or waiver. Separating the
		// two is what lets boundcert flag a loop-line directive that attaches
		// to nothing.
		docGroups := map[*ast.CommentGroup]bool{f.Doc: true}
		var ifaceMethods, structFields []*ast.Field
		var valueSpecs []*ast.ValueSpec
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				docGroups[decl.Doc] = true
			case *ast.GenDecl:
				docGroups[decl.Doc] = true
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						docGroups[spec.Doc] = true
						docGroups[spec.Comment] = true
						valueSpecs = append(valueSpecs, spec)
					case *ast.TypeSpec:
						docGroups[spec.Doc] = true
						switch t := spec.Type.(type) {
						case *ast.InterfaceType:
							for _, m := range t.Methods.List {
								if len(m.Names) != 1 {
									continue
								}
								docGroups[m.Doc] = true
								docGroups[m.Comment] = true
								ifaceMethods = append(ifaceMethods, m)
							}
						case *ast.StructType:
							for _, fl := range t.Fields.List {
								docGroups[fl.Doc] = true
								docGroups[fl.Comment] = true
								structFields = append(structFields, fl)
							}
						}
					}
				}
			}
		}
		// Record loop-line wf:bounded/wf:lockfree comments and line-scoped
		// waivers; any other discipline directive outside a doc comment is
		// misplaced.
		for _, cg := range f.Comments {
			if docGroups[cg] {
				continue
			}
			dirs, extras := a.parseGroup(cg)
			for _, d := range dirs {
				if d.Mode != ModeBounded && d.Mode != ModeLockFree {
					continue
				}
				p := fset.Position(d.Pos)
				if a.loopDirs[p.Filename] == nil {
					a.loopDirs[p.Filename] = make(map[int]*Directive)
				}
				a.loopDirs[p.Filename][p.Line] = d
			}
			for _, x := range extras {
				switch x.verb {
				case "waiver", "ack", "persist", "owns":
					a.recordMark(x)
				default:
					a.errorf(x.pos, "wf:%s must sit in a declaration's doc comment", x.verb)
				}
			}
		}
		// Package-level directives sit on the package clause's doc comment.
		pkgDirs, pkgExtras := a.parseGroup(f.Doc)
		for _, d := range pkgDirs {
			a.Pkg = a.merge(a.Pkg, d, "package "+f.Name.Name)
		}
		for _, x := range pkgExtras {
			a.errorf(x.pos, "wf:%s is not valid on a package clause", x.verb)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			dirs, extras := a.parseGroup(fd.Doc)
			for _, d := range dirs {
				a.Funcs[fd] = a.merge(a.Funcs[fd], d, "func "+fd.Name.Name)
			}
			for _, x := range extras {
				switch x.verb {
				case "steps":
					a.setSteps(fd.Name, x)
				case "durable":
					a.Durable[fd] = x.pos
				case "waiver":
					a.errorf(x.pos, "wf:waiver attaches to the waived statement line, not a declaration")
				case "ack", "persist", "owns":
					a.errorf(x.pos, "wf:%s attaches to the marked statement line, not a declaration", x.verb)
				default:
					a.errorf(x.pos, "wf:%s is not valid on a function declaration", x.verb)
				}
			}
		}
		// Interface-method directives: the contract a dispatch site trusts.
		for _, m := range ifaceMethods {
			name := m.Names[0]
			for _, cg := range []*ast.CommentGroup{m.Doc, m.Comment} {
				dirs, extras := a.parseGroup(cg)
				for _, d := range dirs {
					a.Methods[name] = a.merge(a.Methods[name], d, "interface method "+name.Name)
				}
				for _, x := range extras {
					if x.verb == "steps" {
						a.setSteps(name, x)
					} else {
						a.errorf(x.pos, "wf:%s is not valid on an interface method", x.verb)
					}
				}
			}
		}
		for _, fl := range structFields {
			a.parseDeclGroups(fl.Names, fl.Doc, fl.Comment, "struct field")
		}
		for _, vs := range valueSpecs {
			a.parseDeclGroups(vs.Names, vs.Doc, vs.Comment, "const/var declaration")
		}
	}
	seen := make(map[Diagnostic]bool, len(a.Errors))
	dedup := a.Errors[:0]
	for _, e := range a.Errors {
		if !seen[e] {
			seen[e] = true
			dedup = append(dedup, e)
		}
	}
	a.Errors = dedup
	return a
}

// merge keeps a declaration's first mode directive, erroring a later one
// that conflicts with it.
func (a *Annotations) merge(prev, d *Directive, what string) *Directive {
	if prev == nil {
		return d
	}
	if prev.Mode != d.Mode {
		a.errorf(d.Pos, "%s: conflicting %s and %s directives", what, prev.Mode, d.Mode)
	}
	return prev
}

// parseDeclGroups applies the doc and trailing comment groups of one field
// or value spec: register-discipline directives attach to the declared
// names; mode directives do not belong here.
func (a *Annotations) parseDeclGroups(names []*ast.Ident, doc, line *ast.CommentGroup, kind string) {
	for _, cg := range []*ast.CommentGroup{doc, line} {
		dirs, extras := a.parseGroup(cg)
		for _, d := range dirs {
			a.errorf(d.Pos, "%s is not valid on a %s", d.Mode, kind)
		}
		for _, x := range extras {
			a.applyFieldExtra(names, x)
		}
	}
}

// applyFieldExtra attaches one register-discipline directive to the
// declared names of a field or value spec.
func (a *Annotations) applyFieldExtra(names []*ast.Ident, x extraDir) {
	switch x.verb {
	case "waiver":
		a.errorf(x.pos, "wf:waiver attaches to the waived statement line, not a declaration")
		return
	case "durable", "ack", "persist", "owns":
		a.errorf(x.pos, "wf:%s is not valid on a struct field or const/var declaration", x.verb)
		return
	case "param", "len", "singlewriter":
		if !token.IsIdentifier(x.arg) {
			a.errorf(x.pos, "wf:%s argument must be a single identifier, got %q", x.verb, x.arg)
			return
		}
	case "steps":
		if _, err := parseSteps(x.arg); err != nil {
			a.errorf(x.pos, "wf:steps: %v", err)
			return
		}
	}
	for _, name := range names {
		fa := a.Fields[name]
		if fa == nil {
			fa = &FieldAnn{}
			a.Fields[name] = fa
		}
		switch x.verb {
		case "singlewriter":
			fa.SingleWriter = x.arg
		case "monotone":
			fa.Monotone = true
		case "abaguard":
			fa.ABAGuard = x.arg
		case "len":
			fa.Len = x.arg
		case "param":
			fa.Param = x.arg
		case "steps":
			fa.Steps = x.arg
		}
		fa.Pos = x.pos
	}
}

// setSteps records a declared symbolic step bound on a function or
// interface-method name.
func (a *Annotations) setSteps(name *ast.Ident, x extraDir) {
	if _, err := parseSteps(x.arg); err != nil {
		a.errorf(x.pos, "wf:steps: %v", err)
		return
	}
	if prev := a.Steps[name]; prev != nil && prev.Expr != x.arg {
		a.errorf(x.pos, "%s: conflicting wf:steps expressions %q and %q", name.Name, prev.Expr, x.arg)
		return
	}
	a.Steps[name] = &StepsAnn{Expr: x.arg, Pos: x.pos}
}

// recordMark indexes one //wf:waiver, //wf:ack, //wf:persist or //wf:owns
// by file and line. For waiver and owns the first argument field is the
// analyzer or the shutdown mechanism expression; the remainder (and the
// whole argument for ack/persist) is the reason or a free-text note.
func (a *Annotations) recordMark(x extraDir) {
	m := &LineMark{Verb: x.verb, Note: x.arg, Pos: x.pos}
	if x.verb == "owns" || x.verb == "waiver" {
		mech, note, _ := strings.Cut(x.arg, " ")
		m.Mech, m.Note = mech, strings.TrimSpace(note)
	}
	if x.verb == "waiver" && !waivable[m.Mech] {
		a.errorf(x.pos, "wf:waiver analyzer must be singlewriter, monotone, abasafe, fsyncorder, ackpersist or goown, got %q", m.Mech)
		return
	}
	if x.verb == "waiver" && m.Note == "" {
		a.errorf(x.pos, "wf:waiver requires a reason after the analyzer name")
		return
	}
	p := a.fset.Position(x.pos)
	if a.marks[p.Filename] == nil {
		a.marks[p.Filename] = make(map[int][]*LineMark)
	}
	a.marks[p.Filename][p.Line] = append(a.marks[p.Filename][p.Line], m)
}

// extraArgName names the required argument of each discipline verb, for
// missing-argument errors.
var extraArgName = map[string]string{
	"steps":        "a symbolic step expression",
	"param":        "a parameter name",
	"len":          "a parameter name",
	"singlewriter": "the owner index identifier",
	"abaguard":     "a reason",
	"waiver":       "an analyzer name and a reason",
	"owns":         "the shutdown mechanism expression",
}

// parseGroup extracts the directives of one comment group, recording
// malformed ones as errors. Only line comments with no space after //
// count, matching the //go: directive convention; `// wf:waitfree` is prose.
func (a *Annotations) parseGroup(cg *ast.CommentGroup) ([]*Directive, []extraDir) {
	if cg == nil {
		return nil, nil
	}
	var dirs []*Directive
	var extras []extraDir
	for _, c := range cg.List {
		body, ok := strings.CutPrefix(c.Text, "//wf:")
		if !ok {
			continue
		}
		verb, arg, _ := strings.Cut(body, " ")
		arg = strings.TrimSpace(arg)
		d := &Directive{Pos: c.Pos(), Arg: arg}
		switch verb {
		case "waitfree":
			d.Mode = ModeWaitFree
		case "blocking":
			d.Mode = ModeBlocking
			if arg == "" {
				a.errorf(c.Pos(), "wf:blocking requires a reason")
			}
		case "bounded", "lockfree":
			if verb == "bounded" {
				d.Mode = ModeBounded
			} else {
				d.Mode = ModeLockFree
			}
			d.Steps, d.Arg = a.splitSteps(c.Pos(), arg)
			if d.Arg == "" {
				if verb == "bounded" {
					a.errorf(c.Pos(), "wf:bounded requires a stated bound")
				} else {
					a.errorf(c.Pos(), "wf:lockfree requires a reason")
				}
			}
		case "steps", "param", "len", "singlewriter", "monotone", "abaguard", "waiver",
			"durable", "ack", "persist", "owns":
			switch verb {
			case "monotone", "durable", "ack", "persist":
				// argument optional (free-text note)
			default:
				if arg == "" {
					a.errorf(c.Pos(), "wf:%s requires %s", verb, extraArgName[verb])
					continue
				}
			}
			extras = append(extras, extraDir{verb: verb, arg: arg, pos: c.Pos()})
			continue
		default:
			a.errorf(c.Pos(), "unknown directive wf:%s (want waitfree, blocking, bounded, lockfree, steps, param, len, singlewriter, monotone, abaguard, waiver, durable, ack, persist or owns)", verb)
			continue
		}
		dirs = append(dirs, d)
	}
	return dirs, extras
}

// splitSteps strips an optional leading [expr] symbolic trip-count bracket
// off a wf:bounded / wf:lockfree argument, validating the expression.
func (a *Annotations) splitSteps(pos token.Pos, arg string) (steps, rest string) {
	if !strings.HasPrefix(arg, "[") {
		return "", arg
	}
	i := strings.Index(arg, "]")
	if i < 0 {
		a.errorf(pos, "unterminated [steps] bracket")
		return "", arg
	}
	steps = strings.TrimSpace(arg[1:i])
	rest = strings.TrimSpace(arg[i+1:])
	if _, err := parseSteps(steps); err != nil {
		a.errorf(pos, "bad [steps] bracket: %v", err)
		return "", rest
	}
	return steps, rest
}

// errorf records an annotation error at pos.
func (a *Annotations) errorf(pos token.Pos, format string, args ...any) {
	a.Errors = append(a.Errors, Diagnostic{
		Pos: a.fset.Position(pos), Analyzer: "annot",
		Message: fmt.Sprintf(format, args...),
	})
}
