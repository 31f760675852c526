package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waitfree"
	"waitfree/internal/baseline"
	"waitfree/internal/combine"
	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/randcons"
	"waitfree/internal/seqspec"
	"waitfree/internal/wfstats"
)

// reportCmd is the bare command: the measurable experiments of EXPERIMENTS.md
// (E14–E20, E29) in one pass — replay-length bounds, consensus rounds per
// operation, fetch-and-cons costs, the lock-vs-wait-free stall contrast,
// combining-network traffic, randomized register-only consensus rounds and
// the instrumented stack's metrics.
func reportCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	n := fs.Int("n", 4, "worker processes")
	ops := fs.Int("ops", 2000, "operations per worker")
	return func(w, _ io.Writer) int {
		fmt.Fprintf(w, "waitfree experiment report (n=%d, %d ops/worker)\n", *n, *ops)
		fmt.Fprintln(w)
		e16Truncation(w, *n, *ops)
		e15e18Rounds(w, *n, *ops)
		e14FetchAndCons(w, *ops)
		e17Motivation(w, *n)
		e19Combining(w, *n, *ops)
		e20Randomized(w, *n)
		e29Metrics(w, *n, *ops)
		return 0
	}
}

func runWorkers(n, per int, invoke func(pid int, op seqspec.Op) int64, op func(p, i int) seqspec.Op) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				invoke(p, op(p, i))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func inc(p, i int) seqspec.Op { return seqspec.Op{Kind: "inc"} }

func e16Truncation(w io.Writer, n, per int) {
	fmt.Fprintln(w, "E16: strongly wait-free truncation (Section 4.1)")
	for _, truncate := range []bool{true, false} {
		var opts []waitfree.Option
		label := "snapshots on "
		if !truncate {
			opts = append(opts, waitfree.WithoutTruncation())
			label = "snapshots off"
		}
		u := waitfree.New(waitfree.Counter{}, waitfree.NewSwapFetchAndCons(), n, opts...)
		d := runWorkers(n, per, u.Invoke, inc)
		_, mean, max := u.ReplayStats()
		fmt.Fprintf(w, "  %s: %8v total, replay mean %7.1f max %5d (bound: n=%d with snapshots)\n",
			label, d.Round(time.Millisecond), mean, max, n)
	}
	fmt.Fprintln(w)
}

func e15e18Rounds(w io.Writer, n, per int) {
	fmt.Fprintln(w, "E15/E18: consensus rounds per fetch-and-cons (Figure 4-5; bound n+1)")
	for _, nn := range []int{2, n, 2 * n} {
		fac := core.NewConsFAC(nn, func() consensus.Object { return consensus.NewCAS(nn) })
		u := core.NewUniversal(seqspec.Counter{}, fac, nn)
		runWorkers(nn, per/2, u.Invoke, inc)
		fmt.Fprintf(w, "  n=%2d: %.3f rounds/op (bound %d)\n", nn, fac.RoundsPerOp(), nn+1)
	}
	fmt.Fprintln(w)
}

func e14FetchAndCons(w io.Writer, per int) {
	fmt.Fprintln(w, "E14: constant-time fetch-and-cons from memory-to-memory swap (Figs 4-3/4-4)")
	// The operation itself is one primitive step; disable the garbage
	// collector during the probes so its list-proportional marking work
	// (absent from the paper's model) does not pollute the measurement.
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	fac := core.NewSwapFAC()
	var seq int64
	for _, size := range []int{1000, 10000, 100000} {
		for fac.Head() == nil || fac.Head().Len < size {
			seq++
			fac.FetchAndCons(0, &core.Entry{Pid: 0, Seq: seq})
		}
		runtime.GC()
		start := time.Now()
		const probe = 5000
		for i := 0; i < probe; i++ {
			seq++
			fac.FetchAndCons(0, &core.Entry{Pid: 0, Seq: seq})
		}
		fmt.Fprintf(w, "  list length %6d: %6.0f ns/op (independent of length)\n",
			size, float64(time.Since(start).Nanoseconds())/probe)
	}
	fmt.Fprintln(w)
}

func e17Motivation(w io.Writer, n int) {
	fmt.Fprintln(w, "E17: a stalled process in a critical section vs wait-free (Section 1)")
	const stall = 10 * time.Millisecond
	const per = 150

	lock := baseline.NewLocked(seqspec.Counter{})
	var k int
	lock.CriticalSection = func(pid int) {
		if pid == 0 {
			k++
			if k%10 == 0 {
				time.Sleep(stall)
			}
		}
	}
	worst := func(invoke func(int, seqspec.Op) int64) time.Duration {
		var w atomic.Int64
		runWorkers(n, per, func(pid int, op seqspec.Op) int64 {
			s := time.Now()
			r := invoke(pid, op)
			if pid != 0 {
				if d := time.Since(s); int64(d) > w.Load() {
					w.Store(int64(d))
				}
			}
			return r
		}, inc)
		return time.Duration(w.Load())
	}
	lockWorst := worst(lock.Invoke)

	fac := &stallFAC{inner: core.NewSwapFAC(), stall: stall}
	u := core.NewUniversal(seqspec.Counter{}, fac, n)
	wfWorst := worst(u.Invoke)

	fmt.Fprintf(w, "  worst healthy-worker op latency: lock-based %v, wait-free %v (stall %v)\n",
		lockWorst.Round(time.Microsecond), wfWorst.Round(time.Microsecond), stall)
	fmt.Fprintln(w)
}

type stallFAC struct {
	inner core.FetchAndCons
	stall time.Duration
	k     atomic.Int64
}

func (s *stallFAC) FetchAndCons(pid int, e *core.Entry) *core.Node {
	out := s.inner.FetchAndCons(pid, e)
	if pid == 0 && s.k.Add(1)%10 == 0 {
		time.Sleep(s.stall)
	}
	return out
}

func (s *stallFAC) Observe() *core.Node { return s.inner.Observe() }

func e19Combining(w io.Writer, n, per int) {
	fmt.Fprintln(w, "E19: combining network (Ultracomputer, Sections 1/5)")
	net := combine.New(n, 0)
	defer net.Close()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				net.FetchAndAdd(p, 1)
			}
		}()
	}
	wg.Wait()
	waves, maxCombined := net.Stats()
	fmt.Fprintf(w, "  %d fetch-and-adds reached the root memory in %d waves (max %d combined);\n",
		n*per, waves, maxCombined)
	fmt.Fprintf(w, "  combining cuts root traffic %0.1fx — and changes nothing about the\n",
		float64(n*per)/float64(waves))
	fmt.Fprintln(w, "  consensus number: fetch-and-add stays at level 2 (Theorem 6).")
	fmt.Fprintln(w)
}

func e20Randomized(w io.Writer, n int) {
	fmt.Fprintln(w, "E20 (Section 5 future work): randomized consensus from registers only")
	const trials = 200
	var total, worst int64
	for trial := 0; trial < trials; trial++ {
		obj := randcons.New(n, int64(trial))
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				obj.Decide(p, int64(p))
			}()
		}
		wg.Wait()
		r := obj.Rounds()
		total += r
		if r > worst {
			worst = r
		}
	}
	fmt.Fprintf(w, "  %d elections, n=%d: mean %.2f adopt-commit rounds, worst %d —\n",
		trials, n, float64(total)/trials, worst)
	fmt.Fprintln(w, "  agreement/validity deterministic, termination probabilistic: Theorem 2's")
	fmt.Fprintln(w, "  impossibility is strictly about deterministic protocols.")
	fmt.Fprintln(w)
}

func e29Metrics(w io.Writer, n, per int) {
	fmt.Fprintln(w, "E29: wait-free observability (internal/wfstats)")
	fmt.Fprintln(w, "  One registry instrumenting every layer of the Figure 4-5 stack; the")
	fmt.Fprintln(w, "  record path is itself wait-free (atomics only, wfvet-verified).")
	reg := wfstats.NewRegistry()
	consensus.Instrument(reg)
	defer consensus.Instrument(nil) // detach the package-level counters again
	u := core.NewUniversal(seqspec.Counter{}, newFAC(reg, "cons", n), n, core.WithMetrics(reg))
	runWorkers(n, per, u.Invoke, inc)
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		fmt.Fprintln(w, "  metrics export failed:", err)
		return
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		fmt.Fprintln(w, "  "+line)
	}
}
