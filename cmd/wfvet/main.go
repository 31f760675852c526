// Command wfvet audits the repo's wait-freedom claims: it loads the
// packages named by its arguments (./... by default), builds the
// whole-program call graph over the module, runs the internal/wfcheck
// analyzers — blocking-construct reachability from //wf:waitfree entry
// points, bound certification of //wf:bounded claims, the lock-free retry
// lint, publication release/acquire pairing, atomic/plain mixed field
// access, seqspec transition-function purity, the single-writer /
// monotone / ABA register disciplines, the service-tier crash-durability
// disciplines (fsyncorder commit ordering on //wf:durable functions,
// ackpersist persist-before-acknowledge, goown goroutine shutdown
// ownership), and symbolic step-bound certification of every exported
// façade operation — and exits non-zero when any claim is violated. Stale-directive warnings (under -all) are
// advisory unless -strict-stale promotes unallowlisted ones to errors.
//
// Usage:
//
//	go run ./cmd/wfvet ./...          # audit the annotated claims
//	go run ./cmd/wfvet -all ./...     # audit mode: treat every function as claiming wait-freedom
//	go run ./cmd/wfvet -bounds ./...  # bounds report + per-operation symbolic step certificates
//	go run ./cmd/wfvet -bounds -md BOUNDS.md ./...  # also write the certificates as Markdown
//	go run ./cmd/wfvet -sarif wfvet.sarif ./...  # also write the findings as SARIF 2.1.0, for code-scanning upload
//	go run ./cmd/wfvet -all -strict-stale ./...     # CI: stale directives fail the run
//
// Exit status: 0 clean (warnings allowed), 1 violations found, 2 load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"waitfree/internal/wfcheck"
)

func main() {
	all := flag.Bool("all", false, "audit mode: treat every unannotated function as wf:waitfree (enables stale-directive warnings)")
	bounds := flag.Bool("bounds", false, "print the bounds report: one line per wf:bounded/wf:lockfree directive with its certification status")
	sarifOut := flag.String("sarif", "", "write the findings as SARIF 2.1.0 to this file (for code-scanning upload)")
	mdOut := flag.String("md", "", "write the symbolic step certificates as Markdown to this file (for committing as BOUNDS.md)")
	strictStale := flag.Bool("strict-stale", false, "promote stale-directive warnings to errors unless allowlisted (implies -all)")
	staleAllow := flag.String("stale-allow", "", "comma-separated allowlist of stale findings (file.go:FuncName) exempt from -strict-stale")
	verbose := flag.Bool("v", false, "report per-package finding and type-error counts")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wfvet [-all] [-bounds] [-md file] [-sarif file] [-strict-stale] [-stale-allow keys] [-v] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, targets, err := load(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	for _, p := range targets {
		if len(p.TypeErrors) > 0 {
			fmt.Fprintf(os.Stderr, "wfvet: %s: %d type errors; analysis may be incomplete\n", p.Path, len(p.TypeErrors))
			if *verbose {
				for _, e := range p.TypeErrors {
					fmt.Fprintf(os.Stderr, "wfvet: \t%v\n", e)
				}
			}
		}
	}

	conf := wfcheck.Config{All: *all || *strictStale, StrictStale: *strictStale}
	if *staleAllow != "" {
		conf.StaleAllow = make(map[string]bool)
		for _, k := range strings.Split(*staleAllow, ",") {
			if k = strings.TrimSpace(k); k != "" {
				conf.StaleAllow[k] = true
			}
		}
	}
	res := conf.RunProgram(wfcheck.NewProgram(loader), targets)

	for _, d := range res.Diags {
		fmt.Println(rel(cwd, d))
	}
	if *bounds {
		printBounds(cwd, res.Bounds)
		printOps(res.Ops)
	}
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, boundsMarkdown(res.Ops), 0o644); err != nil {
			fatal(err)
		}
	}
	if *sarifOut != "" {
		if err := os.WriteFile(*sarifOut, sarif(cwd, res), 0o644); err != nil {
			fatal(err)
		}
	}

	errs, warns := 0, 0
	for _, d := range res.Diags {
		if d.Warn {
			warns++
		} else {
			errs++
		}
	}
	if *verbose {
		perPkg := make(map[string]int)
		for _, d := range res.Diags {
			perPkg[filepath.Dir(d.Pos.Filename)]++
		}
		for _, p := range targets {
			fmt.Fprintf(os.Stderr, "wfvet: %s: %d findings\n", p.Path, perPkg[p.Dir])
		}
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "wfvet: %d violations, %d warnings in %d packages\n", errs, warns, len(targets))
		os.Exit(1)
	}
	if *verbose || warns > 0 {
		fmt.Fprintf(os.Stderr, "wfvet: %d packages clean (%d warnings)\n", len(targets), warns)
	}
}

// load loads the packages the patterns name (relative to cwd) as targets,
// through one loader over the enclosing module.
func load(cwd string, patterns []string) (*wfcheck.Loader, []*wfcheck.Package, error) {
	root, err := wfcheck.FindModuleRoot(cwd)
	if err != nil {
		return nil, nil, err
	}
	loader, err := wfcheck.NewLoader(root)
	if err != nil {
		return nil, nil, err
	}
	dirs, err := expand(cwd, patterns)
	if err != nil {
		return nil, nil, err
	}
	var targets []*wfcheck.Package
	for _, dir := range dirs {
		p, err := loader.LoadDir(dir)
		if err == wfcheck.ErrNoGoFiles {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("loading %s: %w", dir, err)
		}
		targets = append(targets, p)
	}
	return loader, targets, nil
}

// printBounds renders the bounds report as aligned text: one line per
// directive with its certification status and the engine's reasoning.
func printBounds(cwd string, records []wfcheck.BoundRecord) {
	if len(records) == 0 {
		return
	}
	counts := make(map[wfcheck.BoundStatus]int)
	fmt.Println("wf:bounded certification report:")
	for _, r := range records {
		counts[r.Status]++
		pos := r.Pos
		if rp, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rp, "..") {
			pos.Filename = rp
		}
		fmt.Printf("  %-12s %s:%d: %s: %s — %s\n", r.Status, pos.Filename, pos.Line, r.Scope, r.Arg, r.Detail)
	}
	fmt.Printf("  total: %d verified, %d trusted, %d lockfree, %d contradicted\n",
		counts[wfcheck.BoundVerified], counts[wfcheck.BoundTrusted],
		counts[wfcheck.BoundLockFree], counts[wfcheck.BoundContradicted])
}

// printOps renders the symbolic step certificates: one line per exported
// façade operation with its worst-case bound and certification status.
func printOps(ops []wfcheck.OpCert) {
	if len(ops) == 0 {
		return
	}
	fmt.Println("symbolic step certificates:")
	for _, c := range ops {
		fmt.Printf("  %-10s %-14s %s — %s\n", c.Status, c.Bound, c.Op, c.Basis)
	}
}

// paramGloss documents the symbolic parameters the tree declares via
// //wf:param and //wf:len; certificates over parameters outside this table
// still render, glossed by their declaration.
var paramGloss = map[string]string{
	"n": "number of processes (MaxProcs)",
	"S": "shard count of a sharded object",
	"B": "ops in one `Sharded.InvokeBatch` call, a loop of Invoke",
	"g": "GC interval: operations between log-GC anchor swings",
	"M": "registered metrics in a wfstats registry",
	"C": "live-sample cap of the space accountant",
}

// boundsMarkdown renders the certificates as the committed BOUNDS.md: a
// deterministic document CI regenerates and diffs, so any change to a
// certified bound must land as a reviewed diff.
func boundsMarkdown(ops []wfcheck.OpCert) []byte {
	var b strings.Builder
	b.WriteString("# Worst-case step certificates\n\n")
	b.WriteString("Generated by `go run ./cmd/wfvet -bounds -md BOUNDS.md ./...` — do not\n")
	b.WriteString("edit by hand. CI regenerates this file and fails on drift, so every\n")
	b.WriteString("change to a certified bound lands as a reviewed diff.\n\n")
	b.WriteString("Each row is an exported operation reachable from the module façade and\n")
	b.WriteString("its symbolic worst-case step bound: the wait-freedom guarantee, stated\n")
	b.WriteString("as a polynomial over the protocol parameters. `verified` bounds are\n")
	b.WriteString("machine-derived end to end; `trusted` bounds rest on at least one\n")
	b.WriteString("declared fact (a `//wf:steps` contract or a `[expr]` loop bracket).\n\n")

	params := make(map[string]bool)
	for _, c := range ops {
		for _, p := range c.Poly.Params() {
			params[p] = true
		}
	}
	if len(params) > 0 {
		names := make([]string, 0, len(params))
		for p := range params {
			names = append(names, p)
		}
		sort.Strings(names)
		b.WriteString("| parameter | meaning |\n|---|---|\n")
		for _, p := range names {
			gloss := paramGloss[p]
			if gloss == "" {
				gloss = "declared via //wf:param"
			}
			fmt.Fprintf(&b, "| `%s` | %s |\n", p, gloss)
		}
		b.WriteString("\n")
	}

	b.WriteString("| operation | bound | status |\n|---|---|---|\n")
	for _, c := range ops {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s |\n", c.Op, c.Bound, c.Status)
	}
	b.WriteString("\n## Certification basis\n\n")
	for _, c := range ops {
		fmt.Fprintf(&b, "- `%s` — %s\n", c.Op, c.Basis)
	}
	return []byte(b.String())
}

// sarif renders the findings as a minimal SARIF 2.1.0 log — one run, one
// rule per analyzer — in the shape GitHub code scanning ingests.
func sarif(cwd string, res *wfcheck.Result) []byte {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID               string       `json:"id"`
		ShortDescription sarifMessage `json:"shortDescription"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifLocation struct {
		PhysicalLocation struct {
			ArtifactLocation struct {
				URI string `json:"uri"`
			} `json:"artifactLocation"`
			Region sarifRegion `json:"region"`
		} `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}

	ruleDescs := map[string]string{
		"annot":        "malformed or conflicting //wf: directive",
		"blocking":     "blocking construct reachable from a wait-free entry point",
		"boundcert":    "wf:bounded claim audit",
		"progress":     "lock-free retry loop in wait-free code",
		"pubsafety":    "publication read without the acquiring atomic load",
		"atomicmix":    "field accessed both atomically and plainly",
		"specpure":     "nondeterminism in a seqspec transition function",
		"symbound":     "exported operation without a finite symbolic step certificate",
		"singlewriter": "foreign write to a single-writer per-process slot",
		"monotone":     "write to a monotone register not provably non-decreasing",
		"abasafe":      "pointer compare-and-swap without ABA protection",
		"fsyncorder":   "commit rename or append without the fsync ordering of a durable function",
		"ackpersist":   "client-visible acknowledgement not dominated by a persist",
		"goown":        "goroutine without a declared reachable shutdown edge",
		"stale":        "directive no analyzer needs any more",
	}
	seen := make(map[string]bool)
	var rules []sarifRule
	var results []sarifResult
	for _, d := range res.Diags {
		if !seen[d.Analyzer] {
			seen[d.Analyzer] = true
			desc := ruleDescs[d.Analyzer]
			if desc == "" {
				desc = d.Analyzer
			}
			rules = append(rules, sarifRule{ID: "wfvet/" + d.Analyzer, ShortDescription: sarifMessage{Text: desc}})
		}
		level := "error"
		if d.Warn {
			level = "warning"
		}
		r := sarifResult{
			RuleID: "wfvet/" + d.Analyzer, Level: level,
			Message: sarifMessage{Text: fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)},
		}
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = filepath.ToSlash(relPath(cwd, d.Pos.Filename))
		loc.PhysicalLocation.Region = sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column}
		r.Locations = append(r.Locations, loc)
		results = append(results, r)
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	if rules == nil {
		rules = []sarifRule{}
	}
	if results == nil {
		results = []sarifResult{}
	}

	log := map[string]any{
		"$schema": "https://json.schemastore.org/sarif-2.1.0.json",
		"version": "2.1.0",
		"runs": []any{map[string]any{
			"tool": map[string]any{"driver": map[string]any{
				"name":  "wfvet",
				"rules": rules,
			}},
			"results": results,
		}},
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		fatal(err)
	}
	return append(out, '\n')
}

// relPath relativizes a filename against the working directory when it
// stays inside it.
func relPath(cwd, name string) string {
	if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}

// rel renders a diagnostic with its filename relative to the working
// directory, matching go vet's output shape.
func rel(cwd string, d wfcheck.Diagnostic) string {
	d.Pos.Filename = relPath(cwd, d.Pos.Filename)
	return d.String()
}

// expand resolves package patterns (dir, dir/..., ./...) to directories
// containing Go files, skipping testdata, vendor and hidden trees.
func expand(cwd string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" || pat == "." {
				pat = cwd
			}
		}
		base, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfvet: %v\n", err)
	os.Exit(2)
}
