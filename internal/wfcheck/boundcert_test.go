package wfcheck

import (
	"strings"
	"testing"
)

// TestBoundCertification pins the certification engine against the
// boundcert fixture: each directive's status, keyed by its stated
// argument, must match the class the engine claims to prove.
func TestBoundCertification(t *testing.T) {
	_, p := loadFixture(t, "boundcert")
	res := Config{}.RunProgram(SinglePackage(p), []*Package{p})
	records, diags := res.Bounds, analyzerDiags(res, "boundcert")

	want := map[string]BoundStatus{
		"one iteration per element": BoundVerified, // range over a slice
		"n iterations":              BoundVerified, // counted three-clause loop
		"v[0] strictly increases and the loop exits at n":                 BoundVerified,     // monotone counter with threshold exit
		"at most n iterations; skip never stalls i forever by assumption": BoundTrusted,      // conditional step: unprovable
		"n iterations despite the moving goal":                            BoundContradicted, // the body raises its own bound
		"fixture: exercised by the bounds report only":                    BoundLockFree,     // wf:lockfree admission
	}
	got := make(map[string]BoundStatus, len(records))
	for _, r := range records {
		got[r.Arg] = r.Status
	}
	for arg, status := range want {
		if got[arg] != status {
			t.Errorf("bound %q certified %q, want %q", arg, got[arg], status)
		}
	}
	// The unattached directive is not a record; it is an error diagnostic.
	if _, ok := got["this directive attaches to no loop"]; ok {
		t.Errorf("unattached directive produced a bounds record")
	}

	var errs []string
	for _, d := range diags {
		errs = append(errs, d.Message)
	}
	joined := strings.Join(errs, "\n")
	for _, wantMsg := range []string{
		"is contradicted",
		"the loop body writes n, the loop's own bound",
		"attaches to no loop",
	} {
		if !strings.Contains(joined, wantMsg) {
			t.Errorf("boundcert diagnostics missing %q in:\n%s", wantMsg, joined)
		}
	}
	if len(diags) != 2 {
		t.Errorf("got %d boundcert diagnostics, want 2 (contradiction + unattached):\n%s", len(diags), joined)
	}
}

// TestTreeBoundsReport runs the certifier over the real internal/protocols
// package and pins the PR's headline: the assignment-protocol scan loops,
// previously trusted on their stated arguments, are now machine-verified
// as monotone counters.
func TestTreeBoundsReport(t *testing.T) {
	res := treeResult(t)
	if diags := analyzerDiags(res, "boundcert"); len(diags) != 0 {
		t.Fatalf("the tree has boundcert diagnostics: %v", diags)
	}
	verified := 0
	for _, r := range boundsOf(res, "protocols") {
		if r.Status == BoundVerified {
			verified++
			if !strings.Contains(r.Detail, "monotone counter") {
				t.Errorf("verified bound at %s:%d proved by %q, want the monotone-counter class",
					r.Pos.Filename, r.Pos.Line, r.Detail)
			}
		}
	}
	if verified < 4 {
		t.Errorf("internal/protocols has %d verified bounds, want the 4 assignment-scan loops", verified)
	}
}

// TestCoreBoundsReport pins the certifier's headline on internal/core: the
// replay and anchor walks — trusted on their Section 4.1 arguments until
// the structural-walk class landed — are machine-verified self-projection
// descents, and nothing in the package is contradicted.
func TestCoreBoundsReport(t *testing.T) {
	res := treeResult(t)
	if diags := analyzerDiags(res, "boundcert"); len(diags) != 0 {
		t.Fatalf("the tree has boundcert diagnostics: %v", diags)
	}
	byScope := make(map[string]BoundStatus)
	for _, r := range boundsOf(res, "core") {
		if r.Status == BoundContradicted {
			t.Errorf("contradicted bound at %s:%d: %s", r.Pos.Filename, r.Pos.Line, r.Detail)
		}
		byScope[r.Scope] = r.Status
	}
	if got := byScope["loop in replayPublish"]; got != BoundVerified {
		t.Errorf("replayPublish walk certified %q, want %q (structural walk)", got, BoundVerified)
	}
	if got := byScope["loop in gcSwing"]; got != BoundVerified {
		t.Errorf("gcSwing anchor walk certified %q, want %q (structural walk)", got, BoundVerified)
	}
}

// TestTreeBoundsTotals pins the tree-wide certification totals that
// `wfvet -all -bounds ./...` reports — the repo's bound-certification
// budget. A new directive moves a number here on purpose; a contradiction
// anywhere fails outright.
func TestTreeBoundsTotals(t *testing.T) {
	res := treeResult(t)
	if diags := analyzerDiags(res, "boundcert"); len(diags) != 0 {
		t.Errorf("the tree has boundcert diagnostics: %v", diags)
	}
	counts := make(map[BoundStatus]int)
	for _, pkg := range treePackages {
		for _, r := range boundsOf(res, pkg) {
			counts[r.Status]++
			if r.Status == BoundContradicted {
				t.Errorf("contradicted bound at %s:%d: %s", r.Pos.Filename, r.Pos.Line, r.Detail)
			}
		}
	}
	want := map[BoundStatus]int{
		// The structural-walk class moved the replay walks and the gcSwing
		// anchor walk from trusted to verified; the GC min-scans are plain
		// range loops, machine-bounded by their operand, so they carry no
		// directive and add no record. Sharded.InvokeBatch's [B] bracket,
		// one Invoke per op, is a range over the caller's slice — trip
		// count fixed at loop entry — so it verifies. The construction has
		// no batch path: neither Universal.InvokeBatch's two per-entry
		// brackets nor the replay's helping range that published each
		// applied entry's response remain, and deleting the batched Invoke
		// path before them took out awaitHelp's counted help-wait loop.
		BoundVerified: 9, BoundTrusted: 11, BoundLockFree: 4, BoundContradicted: 0,
	}
	for status, n := range want {
		if counts[status] != n {
			t.Errorf("tree-wide %s bounds = %d, want %d", status, counts[status], n)
		}
	}
}
