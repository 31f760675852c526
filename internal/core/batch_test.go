package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

// TestBatchedLinearizable: concurrent pids each drive the construction in
// InvokeBatch waves of 1–6 ops, over every fetch-and-cons construction;
// the history must linearize even though most responses were computed and
// published by the pass of a wave's newest entry, and waves of five or
// more take their entries from two chunks. A wave's ops are recorded as
// concurrent with each other (soakRun). Run under -race this also
// exercises the result-slot publication protocol.
func TestBatchedLinearizable(t *testing.T) {
	const n = 4
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Queue{}, seqspec.Bank{Accounts: 4}}
	for name, mk := range facMakers(n) {
		for _, obj := range objects {
			t.Run(name+"/"+obj.Name(), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					u := NewUniversal(obj, mk(), n)
					var rec linearize.Recorder
					var wg sync.WaitGroup
					for p := 0; p < n; p++ {
						p := p
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(trial*n + p)))
							// Write-heavy: batching only matters on the write
							// path, so lean the mix the other way from the
							// fast-read test.
							soakRun(u, &rec, p, soakOps(obj, rng, 6), 1+rng.Intn(6))
						}()
					}
					wg.Wait()
					h := rec.History()
					if res := linearize.Check(obj, h); !res.OK {
						for _, e := range h {
							t.Logf("  %s", e)
						}
						t.Fatalf("trial %d: batched history not linearizable", trial)
					}
				}
			})
		}
	}
}

// TestBatchedExecutorPublishes pins the helping write itself,
// deterministically: an entry consed onto the log but never executed by its
// announcer (a writer that stalled right after its cons) gets its response
// computed and published by the next InvokeBatch pass that replays through
// it, beside the wave's own earlier entry.
func TestBatchedExecutorPublishes(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2)

	// Announce pid 1's inc by hand — the state a real writer is in after
	// fetch-and-cons returns and before it replays.
	stalled := newEntry(1, 1, seqspec.Op{Kind: "inc"})
	fac.FetchAndCons(1, stalled)
	if _, ok := stalled.Result(); ok {
		t.Fatal("result slot full before any executor ran")
	}

	// Pid 0's wave replays through the stalled entry and must publish its
	// response: the stalled inc saw count 0.
	out := make([]int64, 2)
	u.InvokeBatch(0, []seqspec.Op{{Kind: "inc"}, {Kind: "inc"}}, out)
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("wave = %v, want [1 2] (applied after the stalled inc)", out)
	}
	resp, ok := stalled.Result()
	if !ok {
		t.Fatal("the wave's pass did not publish the stalled entry's response")
	}
	if resp != 0 {
		t.Fatalf("published response = %d, want 0", resp)
	}
	if batches, _, max := u.BatchStats(); batches != 1 || max != 3 {
		t.Fatalf("BatchStats = (%d, _, %d), want one pass settling 3 responses", batches, max)
	}
}

// stallFAC wraps a FetchAndCons and blocks one pid's first call after the
// inner cons has taken effect: the entry is in the decided log, visible to
// every other process, but its announcer is frozen before it can replay or
// publish.
//
//wf:blocking test instrumentation: stalls one pid on purpose to prove the others stay wait-free
type stallFAC struct {
	inner    FetchAndCons
	stallPid int
	stalled  *Entry        // the frozen entry, set before consed closes
	consed   chan struct{} // closed once the stalled pid's cons has taken effect
	gate     chan struct{} // the stalled pid blocks here until the test releases it
}

func (s *stallFAC) FetchAndCons(pid int, e *Entry) *Node {
	prior := s.inner.FetchAndCons(pid, e)
	if pid == s.stallPid && s.stalled == nil {
		s.stalled = e
		close(s.consed)
		<-s.gate
	}
	return prior
}

func (s *stallFAC) Observe() *Node { return s.inner.Observe() }

// TestBatchedStalledWinner: pid 0 conses the first inc of a three-op wave
// and freezes; pids 1..3 run hundreds of increments in waves meanwhile.
// They must all complete (no write path waits for another process), the
// frozen entry's response must be published by someone else's pass, pid 0
// must finish its wave once released, and the full response set must be
// exactly the fetch-and-increment permutation 0..total-1.
func TestBatchedStalledWinner(t *testing.T) {
	const n, per, width = 4, 150, 3
	s := &stallFAC{inner: NewSwapFAC(), stallPid: 0,
		consed: make(chan struct{}), gate: make(chan struct{})}
	u := NewUniversal(seqspec.Counter{}, s, n)
	wave := []seqspec.Op{{Kind: "inc"}, {Kind: "inc"}, {Kind: "inc"}}

	// The stalled wave conses first — its first entry is the oldest in the
	// log, in every later writer's prior — then hangs until released.
	stalledOut := make([]int64, width)
	stalledDone := make(chan struct{})
	go func() { u.InvokeBatch(0, wave, stalledOut); close(stalledDone) }()
	<-s.consed

	respCh := make(chan int64, (n-1)*per+width)
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int64, width)
			for i := 0; i < per; i += width {
				u.InvokeBatch(p, wave, out)
				for _, r := range out {
					respCh <- r
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("writers did not complete while one wave was stalled")
	}
	if r, ok := s.stalled.Result(); !ok || r != 0 {
		t.Fatalf("stalled entry's slot = (%d, %v), want (0, true): no pass published it", r, ok)
	}

	// Release the frozen wave: its first response was long since published
	// by a concurrent pass, and its own pass settles the other two.
	close(s.gate)
	select {
	case <-stalledDone:
		for _, r := range stalledOut {
			respCh <- r
		}
	case <-time.After(60 * time.Second):
		t.Fatal("released wave did not return")
	}
	close(respCh)

	// inc returns the pre-increment count, so the responses must be
	// exactly {0, ..., total-1} — each value once. Any lost, duplicated or
	// misordered publication breaks the permutation.
	total := (n-1)*per + width
	seen := make([]bool, total)
	for r := range respCh {
		if r < 0 || r >= int64(total) || seen[r] {
			t.Fatalf("response %d out of range or duplicated", r)
		}
		seen[r] = true
	}
	if got := u.Invoke(1, seqspec.Op{Kind: "get"}); got != int64(total) {
		t.Fatalf("final count = %d, want %d", got, total)
	}
}

// TestBatchingComposesWithOptions: InvokeBatch must compose with the
// fast-read option — with fast reads off, a one-op wave's read takes
// Invoke's write path, and every wave's reads are consed like its writes.
func TestBatchingComposesWithOptions(t *testing.T) {
	const n = 4
	obj := seqspec.KV{}
	combos := []struct {
		name string
		opts []Option
	}{
		{"no-fast-reads", []Option{WithoutFastReads()}},
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				u := NewUniversal(obj, NewSwapFAC(), n, combo.opts...)
				var rec linearize.Recorder
				var wg sync.WaitGroup
				for p := 0; p < n; p++ {
					p := p
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(trial*n+p) + 99))
						soakRun(u, &rec, p, soakOps(obj, rng, 6), 1+p%3)
					}()
				}
				wg.Wait()
				h := rec.History()
				if res := linearize.Check(obj, h); !res.OK {
					for _, e := range h {
						t.Logf("  %s", e)
					}
					t.Fatalf("trial %d: history not linearizable under %s", trial, combo.name)
				}
				if batches, _, _ := u.BatchStats(); batches == 0 {
					t.Fatalf("no InvokeBatch passes recorded under %s", combo.name)
				}
				if got := u.FastReads(); got != 0 {
					t.Fatalf("%d fast reads under %s", got, combo.name)
				}
			}
		})
	}
}

// TestBatchedMatchesUnbatched: with a fixed single-process operation
// sequence, InvokeBatch waves of 1–9 ops return exactly what one Invoke
// per op does — the uncontended differential (the contended one is the
// linearizability hammer above).
func TestBatchedMatchesUnbatched(t *testing.T) {
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Counter{}, seqspec.Queue{}}
	for _, obj := range objects {
		t.Run(obj.Name(), func(t *testing.T) {
			batched := NewUniversal(obj, NewSwapFAC(), 1)
			plain := NewUniversal(obj, NewSwapFAC(), 1)
			rng := rand.New(rand.NewSource(11))
			ops := make([]seqspec.Op, 400)
			for i := range ops {
				switch obj.Name() {
				case "counter":
					ops[i] = seqspec.Op{Kind: "inc"}
					if rng.Intn(3) == 0 {
						ops[i] = seqspec.Op{Kind: "get"}
					}
				default:
					ops[i] = fastReadMixOp(obj.Name(), rng, i%2 == 0)
				}
			}
			out := make([]int64, 9)
			for i := 0; i < len(ops); {
				wave := ops[i:min(i+1+rng.Intn(9), len(ops))]
				batched.InvokeBatch(0, wave, out)
				for j, op := range wave {
					if want := plain.Invoke(0, op); out[j] != want {
						t.Fatalf("op %d %s: InvokeBatch %d, Invoke %d", i+j, op, out[j], want)
					}
				}
				i += len(wave)
			}
		})
	}
}

// TestInvokeBatchReadHammer is the chunked drain under -race: pid 0 drains
// waves of 1–16 puts through InvokeBatch, whose entries are filled one at a
// time inside shared chunks and each published by its own cons, while
// pids 1–3 take fast reads from whatever head they observe: settled heads
// answer from the head's snapshot, in-flight ones replay the wave's
// entries above the newest snapshot. Every put writes a larger value than
// the one before it, so a reader's successive gets of one key must never
// go backwards.
func TestInvokeBatchReadHammer(t *testing.T) {
	const n, keys, waves, width = 4, 64, 300, 16
	// The writer yields after every cons (chaos_test's yieldFAC), so readers
	// get to observe the heads it leaves in flight.
	fac := &yieldFAC{inner: NewSwapFAC(), rng: func() bool { return false }}
	u := NewUniversal(seqspec.KV{}, fac, n, WithLogGC(4))
	fill := make([]seqspec.Op, keys)
	for k := range fill {
		fill[k] = seqspec.Op{Kind: "put", Args: []int64{int64(k), 0}}
	}
	u.InvokeBatch(0, fill, make([]int64, keys))
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		rng := rand.New(rand.NewSource(1))
		ops := make([]seqspec.Op, width)
		args := make([]int64, 2*width) // reused: entries own their words
		out := make([]int64, width)
		v := int64(0)
		for w := 0; w < waves; w++ {
			k := 1 + rng.Intn(width)
			for i := 0; i < k; i++ {
				v++
				args[2*i], args[2*i+1] = v%keys, v
				ops[i] = seqspec.Op{Kind: "put", Args: args[2*i : 2*i+2]}
			}
			u.InvokeBatch(0, ops[:k], out)
		}
	}()
	for pid := 1; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			last := make([]int64, keys)
			rng := rand.New(rand.NewSource(int64(pid)))
			for writing.Load() {
				k := rng.Int63n(keys)
				got := u.Invoke(pid, seqspec.Op{Kind: "get", Args: []int64{k}})
				if got < last[k] || (got != 0 && got%keys != k) {
					t.Errorf("pid %d: get(%d) = %d after %d", pid, k, got, last[k])
					return
				}
				last[k] = got
				runtime.Gosched() // hand the core back to the writer
			}
		}(pid)
	}
	wg.Wait()
	if u.stats.fastMisses.Load() == 0 {
		t.Error("no read observed an in-flight head")
	}
	if got := u.Invoke(1, seqspec.Op{Kind: "len"}); got != keys {
		t.Errorf("len = %d, want %d", got, keys)
	}
}

// TestInvokeBatchAllocs pins InvokeBatch's steady-state allocations for a
// 16-op batch: the entries come four to a chunk (see entryChunk), each
// carrying its own swap-cons cell and argument words, and the wave costs
// the replay's snapshot Clone. The stored snapshot is the replay's own state, not a
// Clone of it, and needs no box: the entry holds it beside an atomic flag.
// The per-wave entry and prior buffers live in the pid's replay scratch, so
// they add nothing.
func TestInvokeBatchAllocs(t *testing.T) {
	u := NewUniversal(seqspec.Counter{}, NewSwapFAC(), 1)
	ops := make([]seqspec.Op, 16)
	for i := range ops {
		ops[i] = seqspec.Op{Kind: "inc"}
	}
	out := make([]int64, len(ops))
	u.InvokeBatch(0, ops, out) // grow the scratch buffers once
	got := testing.AllocsPerRun(50, func() { u.InvokeBatch(0, ops, out) })
	if want := float64(len(ops)/entryChunk + 1); got != want {
		t.Errorf("InvokeBatch of %d ops allocates %.1f times, want %.0f", len(ops), got, want)
	}
	if sc := u.scratch[0]; len(sc.entries) != 0 || len(sc.priors) != 0 ||
		sc.entries[:cap(sc.entries)][0] != nil || sc.priors[:cap(sc.priors)][0] != nil {
		t.Error("InvokeBatch left entries or priors in its scratch: decided log nodes stay pinned")
	}
	if sc := u.scratch[0]; len(sc.pending) != 0 || len(sc.ops) != 0 ||
		sc.pending[:cap(sc.pending)][0] != nil || sc.ops[:cap(sc.ops)][0].Kind != "" {
		t.Error("the replay left entries or ops in its scratch: log entries and op arguments stay pinned")
	}
}

// TestInvokeBatchKVAllocs pins what the edit window buys a 16-put
// InvokeBatch into a 2 048-key KV: the wave's replay and its own op run in
// one ApplyAll window, so each child node the 16 paths share is copied once
// per wave instead of once per put. The entries cost four chunks (as in
// TestInvokeBatchAllocs) and the wave its Clone, which holds the root, so
// every put edits the root in place; below it the 16 paths of these keys
// hold 31 distinct nodes. A path copy per put would allocate 38 times.
func TestInvokeBatchKVAllocs(t *testing.T) {
	const keys = 2048
	u := NewUniversal(seqspec.KV{}, NewSwapFAC(), 1)
	fill := make([]seqspec.Op, keys)
	for k := range fill {
		fill[k] = seqspec.Op{Kind: "put", Args: []int64{int64(k), int64(k)}}
	}
	u.InvokeBatch(0, fill, make([]int64, keys))
	ops := make([]seqspec.Op, 16)
	for i := range ops {
		ops[i] = seqspec.Op{Kind: "put", Args: []int64{int64(i * 97), -1}}
	}
	out := make([]int64, len(ops))
	u.InvokeBatch(0, ops, out)
	got := testing.AllocsPerRun(50, func() { u.InvokeBatch(0, ops, out) })
	if want := float64(len(ops)/entryChunk + 1 + 31); got != want {
		t.Errorf("16-put InvokeBatch into %d keys allocates %.0f times, want %.0f", keys, got, want)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestKVWriteBytes pins the bytes a KV write copies, on the 2 048-key
// state of TestInvokeBatchKVAllocs. A trie slot is 24 bytes (a child
// pointer whose node length is its bitmap's popcount), so the 32 shared
// nodes of a 16-put wave and the path of a single put move 40 % fewer
// bytes than with 40-byte slice-header slots: 22 064 and 2 856 bytes
// before, 14 128 and 1 752 with 24-byte slots. A 128-byte Entry that owns
// its cell and argument words replaced a 96-byte Entry plus a 24-byte cell,
// +8 bytes a write when the caller's args cost nothing: 14 256 for the
// wave. A state that holds its root inline folds the 32-byte state header
// and the root copy into one allocation in the same size class, 32 bytes
// less a wave or a put: 14 224 and 1 728.
func TestKVWriteBytes(t *testing.T) {
	const keys = 2048
	u := NewUniversal(seqspec.KV{}, NewSwapFAC(), 1)
	fill := make([]seqspec.Op, keys)
	for k := range fill {
		fill[k] = seqspec.Op{Kind: "put", Args: []int64{int64(k), int64(k)}}
	}
	u.InvokeBatch(0, fill, make([]int64, keys))
	ops := make([]seqspec.Op, 16)
	for i := range ops {
		ops[i] = seqspec.Op{Kind: "put", Args: []int64{int64(i * 97), -1}}
	}
	out := make([]int64, len(ops))
	if got, limit := bytesPerRun(50, func() { u.InvokeBatch(0, ops, out) }), 14240.0; got > limit {
		t.Errorf("16-put InvokeBatch into %d keys allocates %.0f bytes, want <= %.0f", keys, got, limit)
	}
	put := seqspec.Op{Kind: "put", Args: []int64{77, 70}}
	if got, limit := bytesPerRun(50, func() { u.Invoke(0, put) }), 1744.0; got > limit {
		t.Errorf("a put into %d keys allocates %.0f bytes, want <= %.0f", keys, got, limit)
	}
}

// BenchmarkCommitterApply prices the server committer's apply, set up as
// the server sets up a durable shard: 2 048 keys seeded through
// KVFrom(KVOf(…)), one pid with log GC at the server's default, and that
// pid, the committer, putting. InvokeBatch at 1, 4 and 16 ops runs beside bare
// seqspec.ApplyAll at the same sizes on a clone of the previous call's
// state, which is what the construction's replay starts from; the gap is
// what the construction costs on the one-writer path. ns/op and B/op are
// per call: divide by the op count for a put's share.
func BenchmarkCommitterApply(b *testing.B) {
	const keys = 2048
	pairs := make(map[int64]int64, keys)
	for k := int64(0); k < keys; k++ {
		pairs[k] = k
	}
	for _, n := range []int{1, 4, 16} {
		args := make([][2]int64, n)
		ops := make([]seqspec.Op, n)
		for j := range ops {
			ops[j] = seqspec.Op{Kind: "put", Args: args[j][:]}
		}
		out := make([]int64, n)
		// next points the ops at fresh keys and values for call i.
		next := func(i int) {
			for j := range args {
				args[j] = [2]int64{int64((i*n+j)*97) % keys, int64(i)}
			}
		}
		b.Run(fmt.Sprintf("InvokeBatch/%d", n), func(b *testing.B) {
			u := NewUniversal(seqspec.KVFrom(seqspec.KVOf(pairs)), NewSwapFAC(), 1, WithLogGC(DefaultGCEvery))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(i)
				u.InvokeBatch(0, ops, out)
			}
		})
		b.Run(fmt.Sprintf("ApplyAll/%d", n), func(b *testing.B) {
			st := seqspec.KVOf(pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next(i)
				st = st.Clone()
				seqspec.ApplyAll(st, ops, out)
			}
		})
	}
}
