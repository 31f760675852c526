// Command bench is the repository's benchmark: one invocation runs one
// workload with one seed in a single process - an in-process
// internal/server driven over loopback TCP, or the bare library - checks
// every reply against an oracle, and prints every metric by name with its
// unit. README.md has the glossary, the layer map and how to run it.
//
//	bash bench/run.sh --workload durable-put --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload durable-put --seed 1 --seconds 12 --trace 1
//	bash bench/run.sh -aa 3
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); a table for people goes to standard error. The exit
// code is 0 only when every reply was right and the idle-layer assertions
// held.
//
//wf:blocking load generator and measurement harness: sockets, timers, files; makes no wait-freedom claims
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Uint64("seed", 1, "seed of the op stream")
	seconds := flag.Int("seconds", nominalSeconds, "length of the measured windows; sets their number, each is a fixed op count")
	trace := flag.Int("trace", 0, "1: traced run - per-layer metrics and bench/out/<workload>.trace.json")
	aa := flag.Int("aa", 0, "A/A mode: run N alternating pairs of sets of all workloads on this build and compare their medians")
	list := flag.Bool("list", false, "list the workloads and exit")
	spec := flag.Bool("spec", false, "print the declaration ../BENCHMARK.json is generated from and exit")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
	case *aa > 0:
		os.Exit(runAA(*aa, *seconds))
	default:
		w := findWorkload(*name)
		if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>  (workloads: -list)\n")
			os.Exit(2)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1))
	}
}

// runOne runs one workload and prints its result; it returns the exit code.
func runOne(w *workload, seed uint64, seconds int, traced bool) int {
	sc, err := newScratch()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	defer sc.cleanup()
	// An interrupted run must not leave its store directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		sc.cleanup()
		os.Exit(130)
	}()

	ref, err := newReference()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: reference kernel: %v\n", err)
		return 2
	}
	defer ref.close()
	r := newRunner(w, seed, seconds, traced, sc)
	r.ref = ref
	if err := r.run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	return report(r.res, traced)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the table and the JSON line and returns the exit code.
func report(res *result, traced bool) int {
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range declared {
		v, ok := res.metrics[m.name]
		if !ok {
			res.problem("harness: metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	out.Correct = res.failed == 0 && len(res.problems) == 0

	fmt.Fprintf(os.Stderr, "workload %s  seed %d  fail_frac %d/%d\n", res.workload, res.seed, res.failed, res.attempted)
	keys := make([]string, 0, len(res.info))
	for k := range res.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %s\n", k, res.info[k])
	}
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if v, ok := res.metrics[m.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-32s %16.4f %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "  PROBLEM: %s\n", p)
	}

	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
