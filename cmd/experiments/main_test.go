package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSubcommands drives every subcommand through run at its cheapest
// arguments: exit 0 and the line that identifies its output.
func TestSubcommands(t *testing.T) {
	for _, tc := range []struct {
		args   string
		marker string
	}{
		{"-n 2 -ops 50", "waitfree experiment report (n=2, 50 ops/worker)"},
		{"report -n 2 -ops 50", "E29: wait-free observability"},
		{"hierarchy", "Figure 1-1: Impossibility and Universality Hierarchy"},
		{"classify -object cas -depth 1", "cas: "},
		// -depth 1: the default depth-2 synthesis search takes over a minute.
		{"impossibility -object interfering -depth 1", "Theorem 6: interfering read-modify-write sets"},
		{"modelcheck -list", "protocols:"},
		{"metrics -ops 50", "universal.op_steps"},
	} {
		var out, errOut bytes.Buffer
		if code := run(strings.Fields(tc.args), &out, &errOut); code != 0 {
			t.Errorf("experiments %s: exit %d, stderr %q", tc.args, code, errOut.String())
		}
		if !strings.Contains(out.String(), tc.marker) {
			t.Errorf("experiments %s: output lacks %q:\n%s", tc.args, tc.marker, out.String())
		}
	}
}

// TestUnknownSubcommand: exit 2 and a usage that lists every command.
func TestUnknownSubcommand(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"nosuch"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	for _, c := range commands {
		if !strings.Contains(errOut.String(), "\n  "+c.name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.name, errOut.String())
		}
	}
	if len(commands) != 6 {
		t.Errorf("%d commands registered, want 6", len(commands))
	}
}

// TestDocCommandsResolve: every `go run ./cmd/<x> [<sub>]` in the top-level
// documents names a cmd/ directory that exists and, for this binary, a
// registered subcommand — so the experiment index cannot rot silently.
func TestDocCommandsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	// The command runs to the end of its code span, comment or table cell.
	re := regexp.MustCompile("go run \\./cmd/([a-z]+)([^`#|\n]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		matches := re.FindAllStringSubmatch(string(text), -1)
		if len(matches) == 0 {
			t.Errorf("%s: no `go run ./cmd/...` line found", doc)
		}
		for _, m := range matches {
			if fi, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: %q names no cmd/ directory", doc, m[0])
				continue
			}
			args := strings.Fields(m[2])
			if m[1] != "experiments" || len(args) == 0 || strings.HasPrefix(args[0], "-") {
				continue
			}
			if lookup(args[0]) == nil {
				t.Errorf("%s: %q names no experiments subcommand", doc, m[0])
			}
		}
	}
}
