package wfcheck

import (
	"path/filepath"
	"strings"
	"sync"
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

// treePackages are the internal packages whose bounds the tree tests pin.
var treePackages = []string{"check", "combine", "core", "protocols", "queue", "registers", "shard", "wfcheck", "wfstats"}

// tree is one analysis of the real module, shared by every test that reads
// it: one loader type-checks each package once, and one RunProgram covers
// the façade (for its step certificates) and treePackages.
var tree struct {
	once sync.Once
	res  *Result
	errs []string
}

// treeResult returns the shared analysis of the real module.
func treeResult(t *testing.T) *Result {
	t.Helper()
	tree.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			tree.errs = append(tree.errs, err.Error())
			return
		}
		loader, err := NewLoader(root)
		if err != nil {
			tree.errs = append(tree.errs, err.Error())
			return
		}
		var targets []*Package
		for _, dir := range append([]string{"."}, treePackages...) {
			if dir != "." {
				dir = filepath.Join("internal", dir)
			}
			p, err := loader.LoadDir(filepath.Join(root, dir))
			if err != nil {
				tree.errs = append(tree.errs, err.Error())
				return
			}
			for _, terr := range p.TypeErrors {
				tree.errs = append(tree.errs, "does not type-check: "+terr.Error())
			}
			targets = append(targets, p)
		}
		tree.res = Config{}.RunProgram(NewProgram(loader), targets)
	})
	if len(tree.errs) != 0 {
		t.Fatalf("loading the module: %s", strings.Join(tree.errs, "\n"))
	}
	return tree.res
}

// boundsOf returns the bounds records of one internal package.
func boundsOf(res *Result, pkg string) []BoundRecord {
	var out []BoundRecord
	for _, r := range res.Bounds {
		if strings.HasSuffix(r.Pkg, "/internal/"+pkg) {
			out = append(out, r)
		}
	}
	return out
}

// analyzerDiags returns the findings of one analyzer.
func analyzerDiags(res *Result, analyzer string) []Diagnostic {
	var out []Diagnostic
	for _, d := range res.Diags {
		if d.Analyzer == analyzer {
			out = append(out, d)
		}
	}
	return out
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
