// Package wfcheck is a static analyzer for the repo's central claim: that
// its protocols are wait-free. The paper's results are statements about
// which primitives a construction touches — Theorem 6 turns "can A implement
// B wait-free?" into a decidable, mechanical test — and wfcheck applies the
// same discipline to the code itself: a function that claims wait-freedom
// must not reach, through any call chain inside the module, a construct
// that can stall on another process's progress.
//
// # Annotation convention
//
// Claims and opt-outs are `//wf:` directives in doc comments (no space after
// `//`, like `//go:` directives):
//
//	//wf:waitfree
//	    The function (or, on a package clause, every function in the
//	    package) claims wait-freedom: it completes in a bounded number of
//	    its own steps regardless of other processes' speeds or failures.
//	//wf:blocking <reason>
//	    The function intentionally blocks; the reason is mandatory. Used by
//	    the lock-based baseline, the simulated message-passing substrate,
//	    and operations the paper itself proves cannot be wait-free. Calling
//	    a wf:blocking function from a wf:waitfree context is a violation.
//	//wf:bounded <bound>
//	    A manual boundedness argument. On a function: the body is trusted
//	    (the repo's simulated hardware primitives — mutex gates whose
//	    critical section is one constant-time step in the paper's cost
//	    model — carry this form). On its own comment line directly above or
//	    beside a loop: that loop's iteration count is justified. boundcert
//	    audits every claim: loop-line bounds it can prove are reported
//	    verified, the rest stay trusted, and a bound whose loop mutates its
//	    own limit is contradicted (an error).
//	//wf:lockfree <reason>
//	    The lock-free admission. On a function: some process always makes
//	    progress but this one may retry forever, so calling it from a
//	    wf:waitfree context is a violation — lock-free progress does not
//	    compose into wait-freedom. On a loop line: acknowledges one CAS
//	    retry loop, satisfying the progress analyzer while keeping the loop
//	    visible in the bounds report.
//
// Loop-line wf:bounded and wf:lockfree arguments may open with a [expr]
// bracket — `//wf:bounded [n*g] walks the live region...` — declaring the
// loop's symbolic trip count for the step algebra (see symbound below).
//
// The v3 symbolic and register-discipline directives:
//
//	//wf:steps <expr>
//	    On a function, interface method, or func-typed field: calls cost
//	    the declared polynomial (identifiers are parameters, composed with
//	    + and *) instead of walking the callee. The cost-model boundary:
//	    seqspec transitions are one step in the paper's model, an interface
//	    contract like FetchAndCons is O(n) by Corollary 27.
//	//wf:param <name>
//	    On a const or field: its value is one instance of the named
//	    symbolic parameter (n processes, g GC interval, B help-spin budget,
//	    ...).
//	//wf:len <name>
//	    On a slice field: its length equals the named parameter, so ranges
//	    over it cost that parameter per trip.
//	//wf:singlewriter <owner>
//	    On a per-process slot slice: element i may be stored only by code
//	    indexing with an identifier named <owner> (the owning pid).
//	//wf:monotone
//	    On an atomic register field: stored values must be provably
//	    non-decreasing (guarded Store, non-negative Add, new>=old CAS).
//	//wf:abaguard <reason>
//	    On a pointer CAS target: states the field's ABA protection when it
//	    is a protocol argument the analyzer cannot see.
//	//wf:waiver <analyzer> <reason>
//	    On (or directly above) a finding's line: a reasoned exemption from
//	    singlewriter, monotone, abasafe, fsyncorder, ackpersist or goown. A
//	    waiver nothing consumes is itself an error — it cannot outlive the
//	    finding it excused.
//
// The v4 service-tier discipline directives:
//
//	//wf:durable [note]
//	    On a function: its os.Rename calls commit data files, or its
//	    (*os.File).Write and Truncate calls commit by append, and
//	    fsyncorder audits the fsync ordering around each one. A durable
//	    function with neither is a stale claim; a rename outside a durable
//	    function is a finding.
//	//wf:persist [note]
//	    On (or directly above) a statement line: completing this statement
//	    makes the operation durable. //wf:ack [note] marks the statement
//	    that makes the result client-visible; ackpersist requires every ack
//	    to be dominated by a persist.
//	//wf:owns <mechanism> [note]
//	    On (or directly above) a go statement: names the shutdown edge — the
//	    channel, listener, connection or context whose close/cancel stops
//	    the goroutine. goown requires one on every go statement in audited
//	    packages and verifies the mechanism is reachable from the goroutine.
//
// A declaration carrying conflicting directives is an error. Directives in
// _test.go files are ignored: test harnesses may block freely.
//
// # Analyzers
//
// blocking: builds the whole-program call graph from the wf:waitfree entry
// points and flags transitive reachability of sync.Mutex/RWMutex.Lock,
// WaitGroup.Wait, Cond.Wait, time.Sleep, channel operations outside a
// select with a default case, loops with no exit condition, spin loops that
// yield via runtime.Gosched, and calls to wf:blocking or wf:lockfree
// functions. Calls resolve across package boundaries through the module's
// import graph; interface call sites conservatively fan out to every
// in-module implementation; only the standard library is a trusted
// boundary.
//
// boundcert: audits every wf:bounded directive and classifies it verified
// (the engine proves the bound: range over fixed data, counted loops with a
// guaranteed step toward a stable limit, monotone counters with a threshold
// exit), trusted (the stated argument stands on its own), or contradicted
// (the loop writes its own bound — an error). Unattached loop-line
// directives are errors too.
//
// progress: detects CAS retry loops — condition-less loops whose every exit
// needs this process's CompareAndSwap to win or shared state to change,
// with no helping write on the retry path. Such a loop is lock-free, not
// wait-free (the paper's universal construction exists precisely to avoid
// this shape), and must carry //wf:lockfree or sit in a wf:blocking
// function; claiming wf:bounded on one is an error.
//
// pubsafety: checks the publication idiom's release/acquire discipline —
// payload fields written plainly and published by an atomic store to a
// wrapper-typed field of the same struct must not be read without first
// loading that field atomically.
//
// atomicmix: flags struct fields accessed both through sync/atomic
// package-level functions and by plain read/write — a data race that the
// race detector only finds on the schedules that happen to run.
//
// specpure: the universal construction replays seqspec transition functions
// from a log, so Apply/Init/Clone/Key/ReadOnly must be deterministic. Flags
// time and math/rand calls, goroutine launches, channel operations,
// package-level state mutation, and map iteration that feeds output without
// a subsequent sort.
//
// symbound: the symbolic step-bound certifier. Loop bounds — machine-derived
// (constant trips, counted loops against //wf:param values, ranges over
// //wf:len slices) or declared ([expr] brackets, //wf:steps contracts) —
// compose additively and multiplicatively through the whole-program call
// graph into a worst-case step polynomial per exported façade operation,
// reported as verified (machine-derived throughout), trusted (resting on
// declared facts), or unbounded (an error for façade-reachable operations:
// wait-freedom is exactly the existence of this bound).
//
// singlewriter: enforces the per-process slot-ownership discipline on
// //wf:singlewriter slices — every element store (assignment, step, or a
// sync/atomic method or package-function mutation) must index by the owner.
//
// monotone: proves writes to //wf:monotone registers non-decreasing, the
// invariant the log GC's low-water protocol stands on.
//
// abasafe: audits pointer CompareAndSwap for ABA protection — install-once
// nil, held-pointer Load, value-derived RMW, or a declared field guard.
//
// fsyncorder: audits the commit protocols of //wf:durable functions — every
// os.Rename preceded by a Sync on the renamed file and followed by a
// directory fsync, every (*os.File).Write or Truncate followed by a Sync on
// the same handle — and flags commit renames outside durable functions.
//
// ackpersist: requires every //wf:ack (client-visible acknowledgement) to
// be dominated by a completed //wf:persist statement on every path — the
// static form of the service tier's persist-before-apply contract.
//
// goown: requires every go statement in audited (non-wf:blocking) packages
// to declare its shutdown edge with //wf:owns <mechanism>, and verifies the
// mechanism is reachable from the spawned goroutine.
//
// stale: flags directives the analyzers no longer need — a wf:blocking
// function with nothing blocking in it, a loop-line bound on a loop whose
// own condition already satisfies every check. Advisory by default;
// StrictStale (CI) turns unallowlisted drift into errors.
//
// # Shared machinery
//
// RunProgram walks each target package's function declarations once and
// hands every function to the per-function checks: progress, the register
// disciplines (singlewriter, monotone and abasafe, in one walk),
// fsyncorder, ackpersist, goown, boundcert's loop records, stale, and the
// fact gathering of pubsafety and specpure. The same walk seeds blocking's
// whole-program call graph with its entry points. The package-level joins
// (atomicmix, pubsafety's cross-function join, specpure's transition audit)
// run after the walk, and symbound certifies the façade last. Every finding
// goes through one report function, which consumes a //wf:waiver for the
// analyzers that take one. One classifier, atomicCall, decomposes a
// sync/atomic call into its register, operation kind and operands, for the
// method form and the package-function form (register: the &x operand)
// alike. One dominance engine, dominatorsOf, walks the path from a function
// body down to a node and derives both the conditions known to hold there
// (monotone's guards) and the statements known to have completed
// (ackpersist's persists); fsyncorder stays positional. Matching is
// syntactic — expression strings, the same currency boundcert trades in —
// the usual static-analysis trade: decidable and reviewable over complete.
package wfcheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string // "annot", "blocking", "boundcert", "progress", "pubsafety", "atomicmix", "specpure", "symbound", "singlewriter", "monotone", "abasafe", "fsyncorder", "ackpersist", "goown" or "stale"
	Message  string
	// Warn marks advisory findings (stale directives) that are reported but
	// do not fail the run.
	Warn bool
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	sev := ""
	if d.Warn {
		sev = "warning: "
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s%s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, sev, d.Message)
}

// SortDiagnostics orders diagnostics by file, line, column, then message.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// Config selects analysis modes.
type Config struct {
	// All treats every unannotated function as if it carried wf:waitfree:
	// audit mode, measuring how far the tree is from a blanket wait-freedom
	// claim. Functions annotated wf:blocking, wf:bounded or wf:lockfree keep
	// their opt-outs. Stale-directive warnings are only produced in this
	// mode.
	All bool

	// StrictStale promotes stale-directive warnings to errors (the CI
	// setting): directive drift fails the build instead of scrolling by.
	StrictStale bool

	// StaleAllow exempts known-acceptable stale findings from StrictStale,
	// keyed "file.go:FuncName" (base filename). Entries must be justified in
	// the workflow that sets them.
	StaleAllow map[string]bool
}

// Result is one analysis run's output: the findings, the bounds report
// covering every wf:bounded and loop-line wf:lockfree directive seen, and —
// when the module's façade package is among the targets — the symbolic
// step certificates of its exported operations.
type Result struct {
	Diags  []Diagnostic
	Bounds []BoundRecord
	Ops    []OpCert
}

// Run executes every analyzer on one loaded package in isolation — the
// degenerate whole-program case. Kept for single-package callers and tests.
func (c Config) Run(p *Package) []Diagnostic {
	return c.RunProgram(SinglePackage(p), []*Package{p}).Diags
}

// run is one RunProgram invocation: the config, the program, and the
// result every analyzer reports into.
type run struct {
	Config
	prog     *Program
	res      *Result
	blocking *blockingPass
}

// newRun starts an analysis run over prog.
func newRun(c Config, prog *Program) *run {
	r := &run{Config: c, prog: prog, res: &Result{}}
	r.blocking = newBlockingPass(r)
	return r
}

// waivable lists the analyzers whose findings a //wf:waiver can excuse.
var waivable = map[string]bool{
	"singlewriter": true, "monotone": true, "abasafe": true,
	"fsyncorder": true, "ackpersist": true, "goown": true,
}

// report is the one way an analyzer records a finding: analyzer's message
// at pos in p, unless the analyzer takes waivers and a //wf:waiver for it
// sits on that line or the line above, which the finding then consumes. It
// returns the recorded diagnostic, or nil when waived.
func (r *run) report(p *Package, analyzer string, pos token.Pos, format string, args ...any) *Diagnostic {
	position := p.Fset.Position(pos)
	if waivable[analyzer] && p.Annots.Waive(position, analyzer) {
		return nil
	}
	r.res.Diags = append(r.res.Diags, Diagnostic{Pos: position, Analyzer: analyzer, Message: fmt.Sprintf(format, args...)})
	return &r.res.Diags[len(r.res.Diags)-1]
}

// RunProgram executes every analyzer over the program, reporting findings
// for the target packages (the ones the user named; the rest of the module
// participates in call resolution only). Diagnostics come back sorted.
func (c Config) RunProgram(prog *Program, targets []*Package) *Result {
	r := newRun(c, prog)
	for _, p := range targets {
		r.checkPackage(p)
	}
	if root := moduleRoot(prog, targets); root != nil {
		r.res.Ops = r.analyzeSymbolic(root)
	}
	SortDiagnostics(r.res.Diags)
	return r.res
}

// checkPackage analyzes one target package: each function declaration
// passes once through the per-function checks, then the package-level
// joins run over what those gathered.
func (r *run) checkPackage(p *Package) {
	r.res.Diags = append(r.res.Diags, p.Annots.Errors...)
	bounds := len(r.res.Bounds)
	r.declBound(p, "package", p.Annots.Pkg)
	attached := make(map[token.Pos]bool) // loop-line directives a loop claimed
	pub := &pubSafety{pubName: make(map[*types.Named]string)}
	spec := newSpecPass(r, p)
	// goown skips packages whose clause carries wf:blocking, as blocking does.
	ownGo := p.Annots.Pkg == nil || p.Annots.Pkg.Mode != ModeBlocking
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			r.declBound(p, "func "+fd.Name.Name, p.Annots.Funcs[fd])
			if fd.Body == nil {
				continue
			}
			r.blocking.seed(p, fd)
			spec.root(fd)
			pub.gather(p, fd)
			r.progressFunc(p, fd)
			r.disciplineFunc(p, fd)
			r.fsyncOrderFunc(p, fd)
			r.ackPersistFunc(p, fd)
			if r.All {
				r.staleFunc(p, fd)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if ownGo {
						r.goOwnStmt(p, fd, n)
					}
				case *ast.ForStmt, *ast.RangeStmt:
					r.loopBound(p, fd, n, attached)
					if r.All {
						r.staleLoop(p, fd, n)
					}
				}
				return true
			})
		}
	}
	r.finishBounds(p, attached, bounds)
	pub.join(r, p)
	spec.audit()
	r.atomicMix(p)
	// Dead waivers and floating marks would silently excuse or exempt the
	// next statement to appear on their line; every analyzer that consumes
	// them has run.
	for _, m := range p.Annots.UnusedMarks() {
		if m.Verb == "waiver" {
			r.report(p, "annot", m.Pos, "wf:waiver %s excuses no finding on its line — remove it (reason was: %s)", m.Mech, m.Note)
		} else {
			r.report(p, "annot", m.Pos, "wf:%s attaches to no audited statement — remove it or move it onto the marked line", m.Verb)
		}
	}
}

// moduleRoot finds the target package whose import path is the module path —
// the façade whose exported surface seeds symbolic certification. Fixture
// programs (no module context) have none.
func moduleRoot(prog *Program, targets []*Package) *Package {
	if prog.Module == "" {
		return nil
	}
	for _, p := range targets {
		if p.Path == prog.Module && p.TPkg != nil {
			return p
		}
	}
	return nil
}
