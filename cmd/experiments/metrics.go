package main

import (
	"flag"
	"fmt"
	"io"

	"waitfree/internal/baseline"
	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
	"waitfree/internal/wfstats"
)

// newFAC returns a fetch-and-cons for n processes that reports into reg:
// "swap" is Figs 4-3/4-4, anything else Fig 4-5 over CAS consensus.
func newFAC(reg *wfstats.Registry, kind string, n int) core.FetchAndCons {
	if kind == "swap" {
		f := core.NewSwapFAC()
		f.Instrument(reg)
		return f
	}
	f := core.NewConsFAC(n, func() consensus.Object { return consensus.NewCAS(n) })
	f.Instrument(reg)
	return f
}

// metricsCmd is a one-shot metrics dump: it wires every instrumented
// subsystem — the universal construction, the sharded KV front end, the
// fetch-and-cons implementations, the consensus protocols and the lock-based
// baseline — into a single wfstats registry, drives a short mixed workload,
// and prints the registry as an aligned text table (or JSON with -json).
//
// It exists to show the observability layer end to end: which metrics each
// layer exports, what a healthy run looks like, and that reading them costs
// the workload nothing it can measure.
func metricsCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	n := fs.Int("n", 4, "worker processes")
	ops := fs.Int("ops", 5000, "operations per worker")
	shards := fs.Int("shards", 4, "shard count for the KV front end")
	facKind := fs.String("fac", "swap", "fetch-and-cons: swap (Figs 4-3/4-4) or cons (Fig 4-5 over CAS consensus)")
	keys := fs.Int64("keys", 256, "key space for the KV workload")
	readPct := fs.Uint64("readpct", 90, "percentage of gets in the KV mix")
	asJSON := fs.Bool("json", false, "dump the registry as JSON instead of a text table")
	return func(w, stderr io.Writer) int {
		if *facKind != "swap" && *facKind != "cons" {
			fmt.Fprintf(stderr, "metrics: unknown -fac %q (want swap or cons)\n", *facKind)
			return 2
		}
		reg := wfstats.NewRegistry()
		consensus.Instrument(reg)
		defer consensus.Instrument(nil)

		kv := shard.NewKV(*shards, *n, func() core.FetchAndCons { return newFAC(reg, *facKind, *n) }, core.WithMetrics(reg))
		kv.Instrument(reg)
		runWorkers(*n, *ops, kv.Invoke, func(pid, i int) seqspec.Op {
			key := int64(mix(uint64(pid)<<32|uint64(i)) % uint64(*keys))
			if mix(uint64(i))%100 < *readPct {
				return seqspec.Op{Kind: "get", Args: []int64{key}}
			}
			return seqspec.Op{Kind: "put", Args: []int64{key, int64(i)}}
		})

		lock := baseline.NewLocked(seqspec.Counter{})
		lock.Instrument(reg)
		runWorkers(*n, *ops, lock.Invoke, inc)

		var err error
		if *asJSON {
			err = reg.WriteJSON(w)
		} else {
			err = reg.WriteText(w)
		}
		if err != nil {
			fmt.Fprintln(stderr, "metrics:", err)
			return 1
		}
		return 0
	}
}

// mix is the splitmix64 finalizer, the workload's cheap stateless generator.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
