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
// //wf:singlewriter slices — every element store must index by the owner.
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
package wfcheck

import (
	"fmt"
	"go/token"
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
	// allowKey identifies a stale finding for Config.StaleAllow
	// ("file.go:FuncName"); empty on every other analyzer's findings.
	allowKey string
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

// Errors reports whether any non-warning diagnostic is present (the
// exit-code question).
func (r *Result) Errors() bool {
	for _, d := range r.Diags {
		if !d.Warn {
			return true
		}
	}
	return false
}

// Run executes every analyzer on one loaded package in isolation — the
// degenerate whole-program case. Kept for single-package callers and tests.
func (c Config) Run(p *Package) []Diagnostic {
	return c.RunProgram(SinglePackage(p), []*Package{p}).Diags
}

// RunProgram executes every analyzer over the program, reporting findings
// for the target packages (the ones the user named; the rest of the module
// participates in call resolution only). Diagnostics come back sorted.
func (c Config) RunProgram(prog *Program, targets []*Package) *Result {
	res := &Result{}
	res.Diags = append(res.Diags, analyzeBlocking(prog, targets, c.All)...)
	for _, p := range targets {
		res.Diags = append(res.Diags, p.Annots.Errors...)
		bounds, diags := analyzeBounds(p)
		res.Bounds = append(res.Bounds, bounds...)
		res.Diags = append(res.Diags, diags...)
		res.Diags = append(res.Diags, analyzeProgress(p)...)
		res.Diags = append(res.Diags, analyzePubSafety(p)...)
		res.Diags = append(res.Diags, analyzeAtomicMix(p)...)
		res.Diags = append(res.Diags, analyzeSpecPurity(p)...)
		res.Diags = append(res.Diags, analyzeSingleWriter(prog, p)...)
		res.Diags = append(res.Diags, analyzeMonotone(prog, p)...)
		res.Diags = append(res.Diags, analyzeABA(prog, p)...)
		analyzeFsyncOrder(p, &res.Diags)
		analyzeAckPersist(p, &res.Diags)
		analyzeGoOwn(prog, p, &res.Diags)
		res.Diags = append(res.Diags, unusedWaiverDiags(p)...)
		res.Diags = append(res.Diags, unusedMarkDiags(p)...)
	}
	if root := moduleRoot(prog, targets); root != nil {
		ops, diags := analyzeSymbolic(prog, root)
		res.Ops = ops
		res.Diags = append(res.Diags, diags...)
	}
	if c.All {
		res.Diags = append(res.Diags, c.staleDiags(prog, targets)...)
	}
	SortDiagnostics(res.Diags)
	return res
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

// unusedWaiverDiags errors every waiver the discipline analyzers did not
// consume: a dead waiver would silently excuse the next finding to appear on
// its line. Must run after singlewriter, monotone and abasafe.
func unusedWaiverDiags(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, w := range p.Annots.UnusedWaivers() {
		diags = append(diags, Diagnostic{
			Pos: p.Fset.Position(w.Pos), Analyzer: "annot",
			Message: fmt.Sprintf("wf:waiver %s excuses no finding on its line — remove it (reason was: %s)", w.Analyzer, w.Reason),
		})
	}
	return diags
}

// unusedMarkDiags errors every //wf:ack, //wf:persist or //wf:owns mark no
// analyzer attached to a statement: a floating mark would silently exempt
// the statement it meant to pin. Must run after ackpersist and goown.
func unusedMarkDiags(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, m := range p.Annots.UnusedMarks() {
		diags = append(diags, Diagnostic{
			Pos: p.Fset.Position(m.Pos), Analyzer: "annot",
			Message: fmt.Sprintf("wf:%s attaches to no audited statement — remove it or move it onto the marked line", m.Verb),
		})
	}
	return diags
}

// staleDiags runs the stale analyzer, applying the strict-mode promotion
// and allowlist.
func (c Config) staleDiags(prog *Program, targets []*Package) []Diagnostic {
	diags := analyzeStale(prog, targets)
	if !c.StrictStale {
		return diags
	}
	for i := range diags {
		if diags[i].Warn && !c.StaleAllow[staleKey(diags[i])] {
			diags[i].Warn = false
		}
	}
	return diags
}
