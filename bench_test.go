// Benchmarks regenerating the measurable shape of every experiment in
// EXPERIMENTS.md. The paper itself reports no timings (it is a theory
// paper); these benchmarks characterize the constructions' costs and
// reproduce the paper's qualitative claims: who wins, what is bounded, what
// grows. They are the paper-experiment sweep (E25–E27, E31–E32 among them),
// not performance evidence: a perf claim is measured with `bash bench/run.sh`
// (see bench/README.md).
package waitfree_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waitfree"
	"waitfree/internal/automata"
	"waitfree/internal/baseline"
	"waitfree/internal/check"
	"waitfree/internal/combine"
	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/interfere"
	"waitfree/internal/linearize"
	"waitfree/internal/model"
	"waitfree/internal/protocols"
	"waitfree/internal/queue"
	"waitfree/internal/randcons"
	"waitfree/internal/regconstruct"
	"waitfree/internal/registers"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
	"waitfree/internal/synth"
	"waitfree/internal/wfstats"
)

// --- E1: Figure 1-1 lower bounds (exhaustive model checking cost) ---

func BenchmarkModelCheck(b *testing.B) {
	instances := map[string]protocols.Instance{
		"rmw2-tas":    protocols.RMW2(model.TestAndSet, 0, 0),
		"cas-3":       protocols.CAS(3),
		"queue2":      protocols.Queue2(),
		"augqueue-3":  protocols.AugQueue(3),
		"move-3":      protocols.Move(3),
		"memswap-3":   protocols.MemSwap(3),
		"assign-3":    protocols.Assign(3),
		"assign2p-m2": protocols.Assign2Phase(2),
		"broadcast-3": protocols.BroadcastConsensus(3),
	}
	for name, inst := range instances {
		b.Run(name, func(b *testing.B) {
			var configs int
			for i := 0; i < b.N; i++ {
				res := check.AllInputs(inst.Proto, inst.Obj, check.Options{})
				if !res.OK {
					b.Fatal(res.Violation)
				}
				configs = res.Configs
			}
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// --- E2/E4/E6/E12: impossibility synthesis (bounded exhaustive search) ---

func BenchmarkSynth(b *testing.B) {
	cases := map[string]struct {
		obj    model.Object
		params synth.Params
	}{
		"registers-2p-d2": {
			obj:    model.NewMemory("rw", make([]model.Value, 2)),
			params: synth.Params{Procs: 2, Depth: 2},
		},
		"tas-3p-d2": {
			obj: model.NewMemory("tas", []model.Value{0},
				model.WithRMW(model.TestAndSet), model.WithoutRW()),
			params: synth.Params{Procs: 3, Depth: 2},
		},
		"channels-2p-d2": {
			obj:    model.NewChannels("p2p", 2),
			params: synth.Params{Procs: 2, Depth: 2},
		},
	}
	for name, c := range cases {
		b.Run(name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				res := synth.Search(c.obj, c.params)
				if res.Found || !res.Complete {
					b.Fatalf("unexpected: %s", res)
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// --- E3/E5/E7-E11: native consensus protocols, latency per Decide ---

func benchConsensus(b *testing.B, n int, mk func() consensus.Object) {
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			obj := mk()
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
		}
	})
}

func BenchmarkConsensus(b *testing.B) {
	families := []struct {
		name string
		mk   func(n int) consensus.Object
	}{
		{"cas", func(n int) consensus.Object { return consensus.NewCAS(n) }},
		{"augqueue", func(n int) consensus.Object { return consensus.NewAugQueue(n) }},
		{"move", func(n int) consensus.Object { return consensus.NewMove(n) }},
		{"memswap", func(n int) consensus.Object { return consensus.NewMemSwap(n) }},
		{"assign", func(n int) consensus.Object { return consensus.NewAssign(n) }},
	}
	for _, f := range families {
		f := f
		b.Run(f.name, func(b *testing.B) {
			for _, n := range []int{2, 8, 32} {
				n := n
				benchConsensus(b, n, func() consensus.Object { return f.mk(n) })
			}
		})
	}
	b.Run("rmw2-tas", func(b *testing.B) {
		benchConsensus(b, 2, func() consensus.Object { return consensus.NewTAS2() })
	})
	b.Run("queue2", func(b *testing.B) {
		benchConsensus(b, 2, func() consensus.Object { return consensus.NewQueue2() })
	})
	b.Run("assign2phase", func(b *testing.B) {
		benchConsensus(b, 8, func() consensus.Object { return consensus.NewAssign2Phase(5) })
	})
}

// --- E4: the Theorem 6 interference decision procedure ---

func BenchmarkInterference(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("domain=%d", d), func(b *testing.B) {
			set := interfere.ClassicalSet(d)
			for i := 0; i < b.N; i++ {
				if !interfere.Check(set).Interfering {
					b.Fatal("classical set must interfere")
				}
			}
		})
	}
}

// benchChunks splits b.N into chunks of at most chunk operations, calling
// rebuild off the clock before each chunk and run on the clock with the
// chunk's size. The anchored log retains every node, so rebuilding the
// object periodically keeps memory flat as b.N scales into the millions;
// the measured steady-state per-op cost is unaffected.
func benchChunks(b *testing.B, chunk int, rebuild func(), run func(ops int)) {
	remaining := b.N
	b.ResetTimer()
	for remaining > 0 {
		ops := remaining
		if ops > chunk {
			ops = chunk
		}
		remaining -= ops
		b.StopTimer()
		rebuild()
		b.StartTimer()
		run(ops)
	}
}

// --- E14/E15: fetch-and-cons, constant-time vs consensus rounds ---

func BenchmarkFetchAndCons(b *testing.B) {
	const n = 4
	makers := map[string]func() core.FetchAndCons{
		"swap": func() core.FetchAndCons { return core.NewSwapFAC() },
		"consensus-cas": func() core.FetchAndCons {
			return core.NewConsFAC(n, func() consensus.Object { return consensus.NewCAS(n) })
		},
		"consensus-memswap": func() core.FetchAndCons {
			return core.NewConsFAC(n, func() consensus.Object { return consensus.NewMemSwap(n) })
		},
	}
	const facChunk = 200_000
	for name, mk := range makers {
		b.Run(name+"/sequential", func(b *testing.B) {
			var fac core.FetchAndCons
			var seq int64
			b.ReportAllocs()
			benchChunks(b, facChunk, func() { fac = mk() }, func(ops int) {
				for i := 0; i < ops; i++ {
					seq++
					fac.FetchAndCons(0, &core.Entry{Pid: 0, Seq: seq})
				}
			})
		})
		b.Run(name+"/contended", func(b *testing.B) {
			type facBox struct{ fac core.FetchAndCons }
			var cur atomic.Pointer[facBox]
			cur.Store(&facBox{fac: mk()})
			var total atomic.Int64
			var seq [n]int64
			var pid sync.Map
			var next int32
			var mu sync.Mutex
			work := func(p int, s *int64) {
				// Rotate the shared list periodically so memory stays flat.
				if total.Add(1)%facChunk == 0 {
					cur.Store(&facBox{fac: mk()})
				}
				*s++
				cur.Load().fac.FetchAndCons(p, &core.Entry{Pid: p, Seq: *s})
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				p := int(next) % n
				next++
				mu.Unlock()
				if _, loaded := pid.LoadOrStore(p, true); loaded {
					// more parallel workers than pids: stay safe, reuse pid 0
					// under a lock to preserve the per-pid sequential contract
					for pb.Next() {
						mu.Lock()
						work(0, &seq[0])
						mu.Unlock()
					}
					return
				}
				for pb.Next() {
					work(p, &seq[p])
				}
			})
		})
	}
}

// --- E13/E16/E18: the universal construction ---

func BenchmarkUniversal(b *testing.B) {
	const n = 4
	type cfg struct {
		name  string
		mk    func() core.FetchAndCons
		opts  []core.Option
		chunk int
	}
	cfgs := []cfg{
		{name: "swap/truncated", mk: func() core.FetchAndCons { return core.NewSwapFAC() }},
		// Untruncated replay cost grows with the log, so its chunks must
		// stay small or a single chunk is quadratic in the chunk size.
		{name: "swap/untruncated", mk: func() core.FetchAndCons { return core.NewSwapFAC() },
			opts: []core.Option{core.WithoutTruncation()}, chunk: 2_000},
		{name: "consensus-cas/truncated", mk: func() core.FetchAndCons {
			return core.NewConsFAC(n, func() consensus.Object { return consensus.NewCAS(n) })
		}},
	}
	objects := []seqspec.Object{seqspec.Counter{}, seqspec.Queue{}, seqspec.KV{}, seqspec.Bank{Accounts: 8}}
	// The log list is immutable and anchored at the head, so one object
	// instance retains its entire history (see core.LiveRegion for the
	// paper's reclamation boundary); benchChunks keeps memory flat.
	for _, c := range cfgs {
		chunk := c.chunk
		if chunk == 0 {
			chunk = 100_000
		}
		for _, obj := range objects {
			b.Run(c.name+"/"+obj.Name(), func(b *testing.B) {
				var u *core.Universal
				var mean float64
				var max int64
				b.ReportAllocs()
				benchChunks(b, chunk,
					func() { u = core.NewUniversal(obj, c.mk(), n, c.opts...) },
					func(ops int) {
						var wg sync.WaitGroup
						per := ops/n + 1
						for p := 0; p < n; p++ {
							p := p
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := 0; i < per; i++ {
									// Alternate mutators per iteration so container
									// states stay small: snapshots clone the state,
									// and a monotonically growing object would make
									// each snapshot O(state) — a property of the
									// workload, not the construction.
									u.Invoke(p, benchOp(obj.Name(), p*per+i))
								}
							}()
						}
						wg.Wait()
						_, mean, max = u.ReplayStats()
					})
				b.ReportMetric(mean, "replay-mean")
				b.ReportMetric(float64(max), "replay-max")
			})
		}
	}
}

func benchOp(object string, k int) seqspec.Op {
	switch object {
	case "counter":
		return seqspec.Op{Kind: "inc"}
	case "queue":
		if k%2 == 0 {
			return seqspec.Op{Kind: "enq", Args: []int64{int64(k)}}
		}
		return seqspec.Op{Kind: "deq"}
	case "kv":
		return seqspec.Op{Kind: "put", Args: []int64{int64(k % 8), int64(k)}}
	case "bank":
		return seqspec.Op{Kind: "transfer", Args: []int64{int64(k % 8), int64((k + 1) % 8), 1}}
	}
	return seqspec.Op{Kind: "inc"}
}

// --- PR1 perf layer: read fast path, tunable snapshots, sharded front end ---

// benchRNG is a per-worker linear congruential generator: deterministic,
// allocation-free op selection inside timed loops.
type benchRNG uint64

func (g *benchRNG) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

// runReadMix drives ops operations split across n worker pids, each doing
// pct% gets (read-only) and otherwise puts, over a keyspace of keys.
func runReadMix(n, ops, pct int, keys int64, invoke func(int, seqspec.Op) int64) {
	var wg sync.WaitGroup
	per := ops/n + 1
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := benchRNG(p + 1)
			for i := 0; i < per; i++ {
				r := rng.next()
				key := int64(r) % keys
				if int((r>>10)%100) < pct {
					invoke(p, seqspec.Op{Kind: "get", Args: []int64{key}})
				} else {
					invoke(p, seqspec.Op{Kind: "put", Args: []int64{key, int64(r)}})
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkReadMix measures the read fast path against the seed write path
// (every op pays cons + snapshot) on a KV under read-dominated and mixed
// workloads. fastpath/reads=100 vs writepath/reads=100 is the acceptance
// comparison: read-only ns/op with and without the fast path.
func BenchmarkReadMix(b *testing.B) {
	const n = 8
	const keys = 64
	modes := []struct {
		name string
		opts []core.Option
	}{
		{name: "fastpath"},
		{name: "writepath", opts: []core.Option{core.WithoutFastReads()}},
	}
	for _, mode := range modes {
		for _, pct := range []int{100, 95, 50} {
			b.Run(fmt.Sprintf("kv/%s/reads=%d", mode.name, pct), func(b *testing.B) {
				var u *core.Universal
				var fastTotal int64
				var mean float64
				b.ReportAllocs()
				benchChunks(b, 100_000,
					func() {
						if u != nil {
							fastTotal += u.FastReads()
						}
						u = core.NewUniversal(seqspec.KV{}, core.NewSwapFAC(), n, mode.opts...)
						for k := int64(0); k < keys; k++ {
							u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
						}
					},
					func(ops int) {
						runReadMix(n, ops, pct, keys, u.Invoke)
						_, mean, _ = u.ReplayStats()
					})
				fastTotal += u.FastReads()
				b.ReportMetric(float64(fastTotal)/float64(b.N), "fast-reads/op")
				b.ReportMetric(mean, "replay-mean")
			})
		}
	}
}

// BenchmarkShardScaling measures the sharded KV front end at S ∈ {1,2,4,8}
// under the 95/5 read mix: near-linear scaling for a key-partitionable
// workload, versus the single shared log at S=1.
func BenchmarkShardScaling(b *testing.B) {
	const n = 8
	const keys = 1024
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/reads=95", s), func(b *testing.B) {
			var kv *shard.Sharded
			var fastTotal int64
			b.ReportAllocs()
			benchChunks(b, 200_000,
				func() {
					if kv != nil {
						fastTotal += kv.FastReads()
					}
					kv = shard.NewKV(s, n, func() core.FetchAndCons { return core.NewSwapFAC() })
					for k := int64(0); k < keys; k++ {
						kv.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
					}
				},
				func(ops int) { runReadMix(n, ops, 95, keys, kv.Invoke) })
			fastTotal += kv.FastReads()
			b.ReportMetric(float64(fastTotal)/float64(b.N), "fast-reads/op")
		})
	}
}

// --- PR5 contention layer: helping-based batching under b.RunParallel ---

// benchParallelPids drives fn under b.RunParallel while preserving the
// per-pid sequential contract: workers 1..n-1 each own their pid
// exclusively, while worker 0 — and any workers beyond n, since RunParallel
// spawns GOMAXPROCS goroutines — share pid 0 under a lock. The -cpu flag
// therefore sets the real writer concurrency (up to n), which is what the
// contended benchmarks sweep.
func benchParallelPids(b *testing.B, n int, fn func(pid, i int)) {
	var next int32
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		w := int(next)
		next++
		mu.Unlock()
		p := w % n
		i := w // stride-n op streams keep workers decorrelated
		if p == 0 || w >= n {
			for pb.Next() {
				mu.Lock()
				fn(0, i)
				mu.Unlock()
				i += n
			}
			return
		}
		for pb.Next() {
			fn(p, i)
			i += n
		}
	})
}

// BenchmarkUniversalContended is the pure write path under real
// parallelism (run with -cpu 1,4,8): every Invoke is one cons plus one
// replay. Its batched rows, which priced announce-and-help against this
// path, were retired with the mechanism (EXPERIMENTS.md E31); the row names
// stay for comparison with older runs.
func BenchmarkUniversalContended(b *testing.B) {
	const n = 8
	const chunk = 200_000
	modes := []struct {
		name string
		opts []core.Option
	}{
		{name: "unbatched"},
		// The log-GC row prices the low-water-mark protocol on the contended
		// write path: one padded register store per op, a min-scan plus
		// truncation walk every DefaultGCEvery-th op.
		{name: "unbatched-gc", opts: []core.Option{core.WithLogGC(core.DefaultGCEvery)}},
	}
	// The kv rows write across 256 keys, where the per-op replay clone and
	// path copy dominate. The counter rows are the cheap-state control.
	contendedOp := func(object string, i int) seqspec.Op {
		if object == "kv" {
			return seqspec.Op{Kind: "put", Args: []int64{int64(i % 256), int64(i)}}
		}
		return benchOp(object, i)
	}
	objects := []seqspec.Object{seqspec.Counter{}, seqspec.KV{}}
	for _, mode := range modes {
		for _, obj := range objects {
			b.Run(mode.name+"/"+obj.Name(), func(b *testing.B) {
				// One registry shared across rotations aggregates the
				// metrics over the whole run.
				reg := wfstats.NewRegistry()
				opts := append([]core.Option{core.WithMetrics(reg)}, mode.opts...)
				type box struct{ u *core.Universal }
				mkbox := func() *box {
					return &box{u: core.NewUniversal(obj, core.NewSwapFAC(), n, opts...)}
				}
				var cur atomic.Pointer[box]
				cur.Store(mkbox())
				var total atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				benchParallelPids(b, n, func(p, i int) {
					// Rotate the anchored log periodically so memory stays
					// flat; stragglers finish on the old instance, which
					// stays valid.
					if total.Add(1)%chunk == 0 {
						cur.Store(mkbox())
					}
					cur.Load().u.Invoke(p, contendedOp(obj.Name(), i))
				})
			})
		}
	}
}

// BenchmarkShardedContended: the sharded KV front end under b.RunParallel
// (run with -cpu 1,4,8) on write-heavy and balanced read mixes. Sharding
// splits the writers across logs. The unbatched row name stays for
// comparison with runs that also had a batched row.
func BenchmarkShardedContended(b *testing.B) {
	const n = 8
	const keys = 1024
	const chunk = 200_000
	modes := []struct {
		name string
		opts []core.Option
	}{
		{name: "unbatched"},
	}
	for _, mode := range modes {
		for _, pct := range []int{0, 50} {
			b.Run(fmt.Sprintf("kv/%s/reads=%d", mode.name, pct), func(b *testing.B) {
				mkkv := func() *shard.Sharded {
					return shard.NewKV(4, n, func() core.FetchAndCons { return core.NewSwapFAC() }, mode.opts...)
				}
				type box struct{ kv *shard.Sharded }
				var cur atomic.Pointer[box]
				cur.Store(&box{kv: mkkv()})
				var total atomic.Int64
				b.ReportAllocs()
				b.ResetTimer()
				benchParallelPids(b, n, func(p, i int) {
					if total.Add(1)%chunk == 0 {
						cur.Store(&box{kv: mkkv()})
					}
					h := uint64(i)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
					key := int64((h >> 33) % keys)
					var op seqspec.Op
					if int((h>>10)%100) < pct {
						op = seqspec.Op{Kind: "get", Args: []int64{key}}
					} else {
						op = seqspec.Op{Kind: "put", Args: []int64{key, int64(h % 1024)}}
					}
					cur.Load().kv.Invoke(p, op)
				})
			})
		}
	}
}

// BenchmarkSteadyStateHeap is the bounded-memory acceptance benchmark: one
// long-lived universal object (no instance rotation — the log is never
// thrown away) driven round-robin by every process, with the live heap
// measured after a forced collection at the end. With the log GC on, live
// heap is the O(n + n·gcEvery) region regardless of op count;
// with it off, the anchored log retains every entry, node and snapshot ever
// consed, so live heap grows linearly with b.N. Run with
// -benchtime=10000000x to pin the 10M-op steady state; the gc row must come
// out >= 10x under the nogc row there. heap-bytes is the retained delta
// (post-GC HeapAlloc, end minus start).
func BenchmarkSteadyStateHeap(b *testing.B) {
	const n = 4
	modes := []struct {
		name string
		opts []core.Option
	}{
		{name: "gc", opts: []core.Option{core.WithLogGC(core.DefaultGCEvery)}},
		{name: "nogc"},
	}
	for _, mode := range modes {
		b.Run("counter/"+mode.name, func(b *testing.B) {
			u := core.NewUniversal(seqspec.Counter{}, core.NewSwapFAC(), n, mode.opts...)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Invoke(i%n, seqspec.Op{Kind: "inc"})
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "heap-bytes")
			runtime.KeepAlive(u)
		})
	}
}

// --- PR3 observability: wfstats record cost and end-to-end overhead ---

// BenchmarkWfstatsRecord measures the raw record paths of the metrics layer:
// one atomic add for a counter, a handful for a histogram, one predicated
// load for the nil no-op mode. All must be allocation-free.
func BenchmarkWfstatsRecord(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		c := wfstats.NewRegistry().Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-parallel", func(b *testing.B) {
		c := wfstats.NewRegistry().Counter("c")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram", func(b *testing.B) {
		h := wfstats.NewRegistry().Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 1023))
		}
	})
	b.Run("nil-noop", func(b *testing.B) {
		var r *wfstats.Registry
		c := r.Counter("c")
		h := r.Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(int64(i))
		}
	})
}

// BenchmarkWfstatsOverhead is the acceptance comparison for the PR 3
// observability layer: the KV read fast path — the hottest path in the tree
// — with the construction recording into a live registry (the default)
// versus the WithMetrics(nil) no-op mode. The two ns/op must stay within
// ~10% of each other.
func BenchmarkWfstatsOverhead(b *testing.B) {
	const n = 8
	const keys = 64
	modes := []struct {
		name string
		opts []core.Option
	}{
		{name: "instrumented"},
		{name: "noop", opts: []core.Option{core.WithMetrics(nil)}},
	}
	for _, mode := range modes {
		b.Run("kv/reads=100/"+mode.name, func(b *testing.B) {
			var u *core.Universal
			b.ReportAllocs()
			benchChunks(b, 100_000,
				func() {
					u = core.NewUniversal(seqspec.KV{}, core.NewSwapFAC(), n, mode.opts...)
					for k := int64(0); k < keys; k++ {
						u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
					}
				},
				func(ops int) { runReadMix(n, ops, 100, keys, u.Invoke) })
		})
	}
}

// --- E17: the Section 1 motivation — locks vs wait-free under stalls ---

func BenchmarkMotivation(b *testing.B) {
	const n = 4
	stall := 200 * time.Microsecond

	b.Run("lock-with-stalls", func(b *testing.B) {
		obj := baseline.NewLocked(seqspec.Counter{})
		var k int
		obj.CriticalSection = func(pid int) {
			if pid == 0 {
				k++
				if k%10 == 0 {
					time.Sleep(stall)
				}
			}
		}
		benchInvokers(b, n, obj.Invoke)
	})
	b.Run("waitfree-with-stalls", func(b *testing.B) {
		fac := &stallFAC{inner: core.NewSwapFAC(), stall: stall}
		u := core.NewUniversal(seqspec.Counter{}, fac, n)
		benchInvokers(b, n, u.Invoke)
	})
	b.Run("lock-no-stalls", func(b *testing.B) {
		obj := baseline.NewLocked(seqspec.Counter{})
		benchInvokers(b, n, obj.Invoke)
	})
	b.Run("waitfree-no-stalls", func(b *testing.B) {
		u := core.NewUniversal(seqspec.Counter{}, core.NewSwapFAC(), n)
		benchInvokers(b, n, u.Invoke)
	})
}

type stallFAC struct {
	inner core.FetchAndCons
	stall time.Duration
	mu    sync.Mutex
	k     int
}

func (s *stallFAC) FetchAndCons(pid int, e *core.Entry) *core.Node {
	out := s.inner.FetchAndCons(pid, e)
	if pid == 0 {
		s.mu.Lock()
		s.k++
		hit := s.k%10 == 0
		s.mu.Unlock()
		if hit {
			time.Sleep(s.stall)
		}
	}
	return out
}

func (s *stallFAC) Observe() *core.Node { return s.inner.Observe() }

// benchInvokers measures the healthy workers' throughput: b.N operations
// split across workers 1..n-1 while worker 0 (the staller) loops until they
// finish.
func benchInvokers(b *testing.B, n int, invoke func(int, seqspec.Op) int64) {
	var stop sync.WaitGroup
	var done bool
	var mu sync.Mutex
	stop.Add(1)
	go func() { // worker 0: the potential staller
		defer stop.Done()
		for {
			mu.Lock()
			d := done
			mu.Unlock()
			if d {
				return
			}
			invoke(0, seqspec.Op{Kind: "inc"})
		}
	}()
	var wg sync.WaitGroup
	per := b.N/(n-1) + 1
	b.ResetTimer()
	for p := 1; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				invoke(p, seqspec.Op{Kind: "inc"})
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	mu.Lock()
	done = true
	mu.Unlock()
	stop.Wait()
}

// --- E18: Corollary 27 — consensus rounds per fetch-and-cons vs n ---

func BenchmarkConsFACScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var fac *core.ConsFAC
			var u *core.Universal
			var rounds float64
			benchChunks(b, 100_000,
				func() {
					fac = core.NewConsFAC(n, func() consensus.Object { return consensus.NewCAS(n) })
					u = core.NewUniversal(seqspec.Counter{}, fac, n)
				},
				func(ops int) {
					var wg sync.WaitGroup
					per := ops/n + 1
					for p := 0; p < n; p++ {
						p := p
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < per; i++ {
								u.Invoke(p, seqspec.Op{Kind: "inc"})
							}
						}()
					}
					wg.Wait()
					rounds = fac.RoundsPerOp()
				})
			b.ReportMetric(rounds, "rounds/op")
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSubstrate(b *testing.B) {
	b.Run("lamport-queue", func(b *testing.B) {
		q := queue.NewLamport(1024)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				for q.Deq() == queue.Empty {
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !q.Enq(int64(i)) {
			}
		}
		wg.Wait()
	})
	b.Run("locked-queue", func(b *testing.B) {
		q := queue.NewFIFO()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				for q.Deq() == queue.Empty {
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Enq(int64(i))
		}
		wg.Wait()
	})
}

// --- Linearizability checker cost ---

func BenchmarkLinearizeCheck(b *testing.B) {
	const n, opsPer = 3, 8
	u := waitfree.New(waitfree.Queue{}, waitfree.NewSwapFetchAndCons(), n)
	var rec linearize.Recorder
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				op := benchOp("queue", p+i)
				ts := rec.Invoke()
				resp := u.Invoke(p, op)
				rec.Complete(p, op, resp, ts)
			}
		}()
	}
	wg.Wait()
	h := rec.History()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linearize.Check(waitfree.Queue{}, h).OK {
			b.Fatal("history must be linearizable")
		}
	}
}

// --- E19: combining network vs direct fetch-and-add under contention ---

func BenchmarkCombining(b *testing.B) {
	const n = 8
	b.Run("network", func(b *testing.B) {
		net := combine.New(n, 0)
		defer net.Close()
		var wg sync.WaitGroup
		per := b.N/n + 1
		b.ResetTimer()
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
		b.StopTimer()
		waves, _ := net.Stats()
		b.ReportMetric(float64(b.N)/float64(waves), "ops/wave")
	})
	b.Run("direct-cas-loop", func(b *testing.B) {
		r := registers.NewRMW(0)
		var wg sync.WaitGroup
		per := b.N/n + 1
		b.ResetTimer()
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r.FetchAndAdd(1)
				}
			}()
		}
		wg.Wait()
	})
}

// --- E20: randomized register-only consensus ---

func BenchmarkRandomizedConsensus(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				obj := randcons.New(n, int64(i))
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
			}
		})
	}
}

// --- E21: constructed registers vs hardware atomics ---

func BenchmarkRegisterConstructions(b *testing.B) {
	b.Run("hardware-atomic", func(b *testing.B) {
		var r registers.Atomic
		for i := 0; i < b.N; i++ {
			r.Store(int64(i))
			_ = r.Load()
		}
	})
	b.Run("atomic-swsr-from-regular", func(b *testing.B) {
		r := regconstruct.NewAtomicSWSRSim(0)
		for i := 0; i < b.N; i++ {
			r.Write(int64(i % 1000))
			_ = r.Read()
		}
	})
	b.Run("regular-16-from-safe-bits", func(b *testing.B) {
		r := regconstruct.NewRegularKFromSafe(16, 0)
		for i := 0; i < b.N; i++ {
			r.Write(int64(i % 16))
			_ = r.Read()
		}
	})
	b.Run("atomic-mrmw-n4", func(b *testing.B) {
		r := regconstruct.NewAtomicMRMW(4, 0)
		for i := 0; i < b.N; i++ {
			r.WriteAt(i%4, int64(i%1000))
			_ = r.ReadAt((i + 1) % 4)
		}
	})
}

// --- E22: the Section 2 automata executor ---

func BenchmarkAutomataSystem(b *testing.B) {
	script := make([]seqspec.Op, 20)
	for i := range script {
		if i%2 == 0 {
			script[i] = seqspec.Op{Kind: "enq", Args: []int64{int64(i)}}
		} else {
			script[i] = seqspec.Op{Kind: "deq"}
		}
	}
	for _, sched := range []string{"sequential", "concurrent"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p1 := &automata.Process{ProcName: "P1", ObjName: "Q", Script: script}
				p2 := &automata.Process{ProcName: "P2", ObjName: "Q", Script: script}
				obj := automata.NewObject("Q", seqspec.Queue{})
				var s automata.Automaton
				if sched == "sequential" {
					s = &automata.SeqScheduler{}
				} else {
					s = &automata.ConcScheduler{}
				}
				sys := automata.NewSystem(p1, p2, obj, s)
				sys.RunRandom(10_000, int64(i))
			}
		})
	}
}
