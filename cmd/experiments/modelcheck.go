package main

import (
	"flag"
	"fmt"
	"io"

	"waitfree/internal/check"
	"waitfree/internal/model"
	"waitfree/internal/protocols"
)

var protocolRegistry = map[string]struct {
	make  func(n int) protocols.Instance
	fixed int // nonzero if the protocol has a fixed process count
	desc  string
}{
	"rmw-tas":      {make: func(int) protocols.Instance { return protocols.RMW2(model.TestAndSet, 0, 0) }, fixed: 2, desc: "Theorem 4: test-and-set, 2 processes"},
	"rmw-swap":     {make: func(int) protocols.Instance { return protocols.RMW2(model.SwapRMW, 1, 0) }, fixed: 2, desc: "Theorem 4: swap, 2 processes"},
	"rmw-faa":      {make: func(int) protocols.Instance { return protocols.RMW2(model.FetchAndAdd, 0, 0) }, fixed: 2, desc: "Theorem 4: fetch-and-add, 2 processes"},
	"cas":          {make: protocols.CAS, desc: "Theorem 7: compare-and-swap, n processes"},
	"queue2":       {make: func(int) protocols.Instance { return protocols.Queue2() }, fixed: 2, desc: "Theorem 9: FIFO queue, 2 processes"},
	"augqueue":     {make: protocols.AugQueue, desc: "Theorem 12: augmented queue, n processes"},
	"move":         {make: protocols.Move, desc: "Theorem 15: memory-to-memory move, n processes"},
	"memswap":      {make: protocols.MemSwap, desc: "Theorem 16: memory-to-memory swap, n processes"},
	"assign":       {make: protocols.Assign, desc: "Theorem 19: n-register assignment, n processes"},
	"assign2phase": {make: protocols.Assign2Phase, desc: "Theorems 20/21: m-register assignment, 2m-2 processes (pass -n m)"},
	"broadcast":    {make: protocols.BroadcastConsensus, desc: "Section 3.1: ordered broadcast, n processes"},
}

// modelcheckCmd runs the exhaustive checker, the schedule fuzzer, or the
// valency analyzer on any of the paper's consensus protocols.
//
//	experiments modelcheck -proto cas -n 3            # exhaustive, all input permutations
//	experiments modelcheck -proto move -n 5 -fuzz 2000
//	experiments modelcheck -proto queue2 -valency
//	experiments modelcheck -list
func modelcheckCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	proto := fs.String("proto", "", "protocol name (see -list)")
	n := fs.Int("n", 3, "process count (or m for assign2phase)")
	fuzz := fs.Int("fuzz", 0, "sample this many random schedules instead of exhausting")
	valency := fs.Bool("valency", false, "run the valency analysis instead of the checker")
	list := fs.Bool("list", false, "list protocols")
	return func(w, stderr io.Writer) int {
		if *list || *proto == "" {
			fmt.Fprintln(w, "protocols:")
			for name, r := range protocolRegistry {
				fmt.Fprintf(w, "  %-14s %s\n", name, r.desc)
			}
			return 0
		}
		entry, ok := protocolRegistry[*proto]
		if !ok {
			fmt.Fprintf(stderr, "modelcheck: unknown protocol %q (try -list)\n", *proto)
			return 1
		}
		if entry.fixed != 0 {
			*n = entry.fixed
		}
		inst := entry.make(*n)
		fmt.Fprintf(w, "%s over %s\n", inst.Proto.Name(), inst.Obj.Name())

		switch {
		case *valency:
			nn := inst.Proto.Procs()
			inputs := make([]model.Value, nn)
			for i := range inputs {
				inputs[i] = model.Value(i)
			}
			rep := check.Valency(inst.Proto, inst.Obj, inputs)
			fmt.Fprintln(w, rep)
			for _, k := range rep.CriticalKeys {
				fmt.Fprintln(w, rep.DescribeCritical(k))
			}
			return 0
		case *fuzz > 0:
			res := check.Fuzz(inst.Proto, inst.Obj, *fuzz, 1, check.Options{})
			return checkReport(w, res, fmt.Sprintf("%d random schedules", *fuzz))
		default:
			res := check.AllInputs(inst.Proto, inst.Obj, check.Options{})
			return checkReport(w, res, "all interleavings, all input permutations")
		}
	}
}

func checkReport(w io.Writer, res check.Result, scope string) int {
	if res.OK {
		fmt.Fprintf(w, "OK (%s): configs=%d max-steps/process=%d decisions=%v\n",
			scope, res.Configs, res.MaxSteps, res.Decisions)
		return 0
	}
	fmt.Fprintf(w, "VIOLATION: %v\n", res.Violation)
	return 1
}
