package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/wfcheck"
)

// TestTreeAudit runs the wfvet gate CI runs, as a test: the whole module,
// loaded as `wfvet ./...` loads it, audits without errors in audit mode,
// and the committed BOUNDS.md is byte for byte what the step certificates
// render to.
func TestTreeAudit(t *testing.T) {
	root, err := wfcheck.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, targets, err := load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range targets {
		for _, e := range p.TypeErrors {
			t.Errorf("%s does not type-check: %v", p.Path, e)
		}
	}
	res := wfcheck.Config{All: true}.RunProgram(wfcheck.NewProgram(loader), targets)
	for _, d := range res.Diags {
		if !d.Warn {
			t.Errorf("%s", d)
		}
	}
	want, err := os.ReadFile(filepath.Join(root, "BOUNDS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := boundsMarkdown(res.Ops); !bytes.Equal(got, want) {
		t.Errorf("BOUNDS.md differs from the certificates; regenerate it with `go run ./cmd/wfvet -bounds -md BOUNDS.md ./...`:\n%s", got)
	}
}
