package wfcheck

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one testdata package through a fresh module-rooted
// loader and returns both.
func loadFixture(t *testing.T, rel string) (*Loader, *Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range p.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	return loader, p
}

// TestCrossPackageResolution pins the point of whole-program analysis:
// package b's wait-free entry points reach blocking code only across the
// import edge into package a, which per-package analysis cannot see, and
// the whole-program call graph reports both violations — the hidden mutex
// behind an unannotated helper and the wf:blocking annotation the caller's
// package cannot read.
func TestCrossPackageResolution(t *testing.T) {
	loader, pb := loadFixture(t, "xpkg/b")
	prog := NewProgram(loader)

	whole := (Config{}).RunProgram(prog, []*Package{pb})
	var msgs []string
	for _, d := range whole.Diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if len(whole.Diags) != 2 {
		t.Fatalf("whole-program analysis found %d diagnostics, want 2:\n%s", len(whole.Diags), joined)
	}
	for _, want := range []string{
		"calls sync.Mutex.Lock",    // Helper's hidden mutex, seen through the import edge
		"annotated wf:blocking",    // Declared's annotation, read from package a
		"reached from wf:waitfree", // the finding attributes to b's entry point
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("whole-program diagnostics missing %q in:\n%s", want, joined)
		}
	}
}

// TestInterfaceContractResolvesDispatch pins the contract rule: an
// annotated interface method settles the dispatch site, while an
// unannotated one fans out to every in-module implementation.
func TestInterfaceContractResolvesDispatch(t *testing.T) {
	loader, p := loadFixture(t, "contract")
	prog := NewProgram(loader)
	res := (Config{}).RunProgram(prog, []*Package{p})
	var msgs []string
	for _, d := range res.Diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if len(res.Diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(res.Diags), joined)
	}
	for _, want := range []string{
		"interface contract is wf:blocking", // annotated Stall method: settled by the contract
		"may dispatch to",                   // unannotated Op method: fans out to SlowImpl
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("diagnostics missing %q in:\n%s", want, joined)
		}
	}
	// The bounded contract on Gated must have silenced that dispatch: no
	// diagnostic mentions it.
	if strings.Contains(joined, "Gated") {
		t.Errorf("bounded contract did not settle the Gated dispatch:\n%s", joined)
	}
}
