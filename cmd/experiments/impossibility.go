package main

import (
	"flag"
	"fmt"
	"io"

	"waitfree/internal/check"
	"waitfree/internal/interfere"
	"waitfree/internal/model"
	"waitfree/internal/protocols"
	"waitfree/internal/synth"
)

// impossibilityCmd runs the machine-checkable impossibility evidence for
// the paper's negative results: bounded exhaustive protocol synthesis (no
// wait-free consensus protocol exists within the searched bounds), the
// Theorem 6 interference decision procedure, and the valency analysis that
// mirrors the proofs' critical-state structure.
//
//	experiments impossibility -object registers   # Theorem 2
//	experiments impossibility -object queue       # Theorem 11
//	experiments impossibility -object interfering # Theorem 6 / Corollary 8
//	experiments impossibility -object channels    # Section 3.1 (Dolev-Dwork-Stockmeyer)
//	experiments impossibility -object valency     # critical-state analysis on queue2
func impossibilityCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	object := fs.String("object", "registers",
		"which impossibility to check: registers | queue | interfering | channels | valency")
	depth := fs.Int("depth", 0, "override the per-process operation depth")
	procs := fs.Int("procs", 0, "override the process count")
	budget := fs.Int64("budget", 0, "override the search node budget")
	return func(w, stderr io.Writer) int {
		if err := impossibilityRun(w, *object, *depth, *procs, *budget); err != nil {
			fmt.Fprintln(stderr, "impossibility:", err)
			return 1
		}
		return 0
	}
}

func impossibilityRun(w io.Writer, object string, depth, procs int, budget int64) error {
	pick := func(def int, override int) int {
		if override > 0 {
			return override
		}
		return def
	}
	report := func(claim string, res synth.Result) {
		fmt.Fprintf(w, "%s\n  verdict: %s\n", claim, res)
		if res.Found {
			fmt.Fprintln(w, "  !!! the paper's theorem would be contradicted; found protocol:")
			fmt.Fprint(w, synth.FormatStrategy(res.Strategy))
		}
	}

	switch object {
	case "registers":
		d := pick(2, depth)
		n := pick(2, procs)
		mem := model.NewMemory("rw", make([]model.Value, 2))
		fmt.Fprintf(w, "Theorem 2: no wait-free %d-process consensus from atomic R/W registers.\n", n)
		fmt.Fprintf(w, "Searching all deterministic protocols: 2 registers, values {0,1}, depth %d...\n", d)
		report("", synth.Search(mem, synth.Params{Procs: n, Depth: d, NodeBudget: budget}))

	case "queue":
		d := pick(2, depth)
		n := pick(3, procs)
		q := model.NewQueue("queue", nil)
		fmt.Fprintf(w, "Theorem 11: no wait-free %d-process consensus from a FIFO queue.\n", n)
		fmt.Fprintf(w, "Searching all deterministic protocols: one queue, items {0,1}, depth %d...\n", d)
		report("", synth.Search(q, synth.Params{Procs: n, Depth: d, NodeBudget: budget}))

	case "interfering":
		fmt.Fprintln(w, "Theorem 6: interfering read-modify-write sets cannot solve 3-process consensus.")
		rep := interfere.Check(interfere.ClassicalSet(8))
		fmt.Fprintf(w, "  classical set {read, write, test-and-set, swap, fetch-and-add} over domain 8:\n")
		fmt.Fprintf(w, "  interfering = %v (%d triples checked)\n", rep.Interfering, rep.Pairs)
		repCAS := interfere.Check(append(interfere.ClassicalSet(8), interfere.CASFamily(8)...))
		fmt.Fprintf(w, "  adding compare-and-swap: interfering = %v\n", repCAS.Interfering)
		if repCAS.Witness != nil {
			fmt.Fprintf(w, "  witness: %s\n", repCAS.Witness)
		}
		d := pick(2, depth)
		swap := model.SwapRMW
		swap.Operands = [][2]model.Value{{0, model.None}, {1, model.None}}
		faa := model.FetchAndAdd
		faa.Operands = [][2]model.Value{{1, model.None}}
		mem := model.NewMemory("rmw-reg", []model.Value{0},
			model.WithRMW(model.TestAndSet, swap, faa), model.WithoutRW())
		fmt.Fprintf(w, "Searching all 3-process protocols over {TAS, swap, FAA} at depth %d...\n", d)
		report("", synth.Search(mem, synth.Params{Procs: 3, Depth: d, NodeBudget: budget}))

	case "channels":
		d := pick(2, depth)
		ch := model.NewChannels("p2p", 2)
		fmt.Fprintln(w, "Section 3.1 (after Dolev-Dwork-Stockmeyer): point-to-point FIFO channels")
		fmt.Fprintln(w, "cannot solve 2-process wait-free consensus.")
		fmt.Fprintf(w, "Searching all deterministic protocols at depth %d...\n", d)
		report("", synth.Search(ch, synth.Params{Procs: 2, Depth: d, NodeBudget: budget}))

	case "valency":
		fmt.Fprintln(w, "Valency analysis (the proof machinery of Theorems 2/6/11) on the")
		fmt.Fprintln(w, "two-process queue protocol of Theorem 9:")
		inst := protocols.Queue2()
		rep := check.Valency(inst.Proto, inst.Obj, []model.Value{0, 1})
		fmt.Fprintf(w, "  %s\n", rep)
		for _, k := range rep.CriticalKeys {
			fmt.Fprintln(w, rep.DescribeCritical(k))
		}

	default:
		return fmt.Errorf("unknown -object %q", object)
	}
	return nil
}
