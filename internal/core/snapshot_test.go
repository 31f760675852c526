package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"waitfree/internal/seqspec"
)

// countingObject wraps a sequential object so that every Apply on any of its
// states, clones included, bumps one shared counter.
type countingObject struct {
	seqspec.Object
	applies *atomic.Int64
}

func (o countingObject) Init() seqspec.State {
	return countingState{State: o.Object.Init(), applies: o.applies}
}

type countingState struct {
	seqspec.State
	applies *atomic.Int64
}

func (s countingState) Apply(op seqspec.Op) int64 {
	s.applies.Add(1)
	return s.State.Apply(op)
}

func (s countingState) Clone() seqspec.State {
	return countingState{State: s.State.Clone(), applies: s.applies}
}

// TestReplayStopAppliesNothing: a snapshot holds the state after its entry's
// op, so a replay that stops there applies nothing for that entry. With one
// process every call's replay stops at the snapshot its previous call
// stored, so a call applies exactly its own op. The pre-state rule would
// add one apply per replay, for the entry the replay stopped at. In fast-read-miss
// pid 1's put is in flight while pid 0 reads, so the read misses the settled
// path and replays: it applies the put above the snapshot it stops at and
// its own get, and the put's execute then applies the put once more.
func TestReplayStopAppliesNothing(t *testing.T) {
	put := seqspec.Op{Kind: "put", Args: []int64{1, 2}}
	get := seqspec.Op{Kind: "get", Args: []int64{1}}
	cases := []struct {
		name   string
		opts   []Option
		call   func(u *Universal) // one call by pid 0
		calls  int64              // applies the call makes
		misses int64              // read-cache misses the call makes
	}{
		{"invoke", nil, func(u *Universal) { u.Invoke(0, put) }, 1, 0},
		{"fast-read-miss", nil, func(u *Universal) {
			e, prior := stall(u, 1, put) // an unsettled head: the read below replays
			u.Invoke(0, get)
			u.execute(1, e, prior)
		}, 3, 1},
	}
	const rounds = 8
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var applies atomic.Int64
			u := NewUniversal(countingObject{seqspec.KV{}, &applies}, NewSwapFAC(), 2, c.opts...)
			c.call(u) // the first call replays from Init and stores the first snapshot
			misses := u.stats.fastMisses.Load()
			for i := 0; i < rounds; i++ {
				applies.Store(0)
				c.call(u)
				if got := applies.Load(); got != c.calls {
					t.Fatalf("call %d applied %d ops, want %d: the replay re-applied the entry it stopped at", i, got, c.calls)
				}
			}
			if got := u.stats.fastMisses.Load() - misses; got != rounds*c.misses {
				t.Fatalf("%d read-cache misses, want %d", got, rounds*c.misses)
			}
		})
	}
}

// sink keeps allocation-measured results live.
var sink seqspec.State

// TestKVPutGetOnePathCopy pins the KV cost of a put followed by a get that
// misses the read cache, on a 2 048-key state: exactly one trie path copy,
// the put's own. Neither replay re-applies the put it stops at. The get
// misses because the head is in flight: pid 1 has consed a get through the
// fetch-and-cons (as a WithoutFastReads reader would) and not yet executed
// it, so the read replays past it to the put's snapshot.
func TestKVPutGetOnePathCopy(t *testing.T) {
	const keys = 2048
	u := NewUniversal(seqspec.KV{}, NewSwapFAC(), 2)
	base := seqspec.KV{}.Init()
	for k := int64(0); k < keys; k++ {
		fill := seqspec.Op{Kind: "put", Args: []int64{k, k}}
		base.Apply(fill)
		u.Invoke(0, fill)
	}
	put := seqspec.Op{Kind: "put", Args: []int64{7, 70}}
	get := seqspec.Op{Kind: "get", Args: []int64{7}}

	clone := testing.AllocsPerRun(100, func() { sink = base.Clone() })
	pathCopy := testing.AllocsPerRun(100, func() { c := base.Clone(); c.Apply(put); sink = c }) - clone
	if pathCopy < 1 {
		t.Fatalf("a put allocates %.0f times beyond its clone; expected a path copy", pathCopy)
	}
	got := testing.AllocsPerRun(100, func() {
		u.Invoke(0, put)
		stall(u, 1, get)
		if u.Invoke(0, get) != 70 {
			t.Fatal("get missed the put")
		}
	})
	// The put: its Entry, its replay's Clone and its own path copy. The
	// stalled get: its Entry. The read: its replay's Clone and the read
	// cache's entry.
	if want := 1 + clone + pathCopy + 1 + clone + 1; got != want {
		t.Errorf("put + cache-missing get allocate %.0f times, want %.0f (one path copy of %.0f, clone %.0f)",
			got, want, pathCopy, clone)
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

// kvKeys is the key count of the KV cost pins below: keys 0..keys-1, each
// its own value.
func kvKeys(keys int64) map[int64]int64 {
	pairs := make(map[int64]int64, keys)
	for k := int64(0); k < keys; k++ {
		pairs[k] = k
	}
	return pairs
}

// TestKVWriteBytes pins the bytes a KV write copies on a 2 048-key state:
// runs of 1, 4 and 16 puts as a durable server's committer applies them (a
// Clone of the published state, then one seqspec.ApplyAll), and a single
// Invoke put. A trie slot is 24 bytes (a child pointer whose node length
// is its bitmap's popcount), a level-1 node carries one more slot, its
// header, and a state holds its root as 32 child pointers, so the Clone
// is one 288-byte allocation. The 1-put run copies one path, 800 bytes:
// 1 088 in all. The 4-put run copies four paths, each under its own root
// index, 3 456 bytes: 3 744. The 16-put run copies the 31 child nodes its
// 16 paths share once each, 11 664 bytes: 11 952. The Invoke put pays its
// Entry (128 bytes), its replay's Clone (288) and one path copy (768):
// 1 184 bytes.
func TestKVWriteBytes(t *testing.T) {
	const keys = 2048
	published := seqspec.KVOf(kvKeys(keys))
	for _, c := range []struct {
		puts  int
		limit float64
	}{{1, 1104}, {4, 3760}, {16, 11968}} {
		ops := make([]seqspec.Op, c.puts)
		for i := range ops {
			ops[i] = seqspec.Op{Kind: "put", Args: []int64{int64(i * 97), -1}}
		}
		out := make([]int64, len(ops))
		if got := bytesPerRun(50, func() { seqspec.ApplyAll(published.Clone(), ops, out) }); got > c.limit {
			t.Errorf("a %d-put run on a clone of %d keys allocates %.0f bytes, want <= %.0f", c.puts, keys, got, c.limit)
		}
	}
	u := NewUniversal(seqspec.KV{}, NewSwapFAC(), 1)
	for k := int64(0); k < keys; k++ {
		u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
	}
	put := seqspec.Op{Kind: "put", Args: []int64{77, 70}}
	if got, limit := bytesPerRun(50, func() { u.Invoke(0, put) }), 1200.0; got > limit {
		t.Errorf("a put into %d keys allocates %.0f bytes, want <= %.0f", keys, got, limit)
	}
}

// BenchmarkCommitterApply prices a durable server committer's apply of one
// shard's run: a Clone of the shard's published 2 048-key state (built by
// seqspec.KVOf, as boot builds it) and one seqspec.ApplyAll of 1, 4 or 16
// puts. ns/op and B/op are per run: divide by the op count for a put's
// share.
func BenchmarkCommitterApply(b *testing.B) {
	const keys = 2048
	pairs := kvKeys(keys)
	for _, n := range []int{1, 4, 16} {
		args := make([][2]int64, n)
		ops := make([]seqspec.Op, n)
		for j := range ops {
			ops[j] = seqspec.Op{Kind: "put", Args: args[j][:]}
		}
		out := make([]int64, n)
		b.Run(fmt.Sprintf("ApplyAll/%d", n), func(b *testing.B) {
			st := seqspec.KVOf(pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range args {
					args[j] = [2]int64{int64((i*n+j)*97) % keys, int64(i)}
				}
				st = st.Clone()
				seqspec.ApplyAll(st, ops, out)
			}
		})
	}
}

// TestWindowSnapshotHammer is the edit window's sharing contract under
// -race. Pid 0 puts into a 2 048-key KV, each put a replay on a clone of
// the newest snapshot. Meanwhile pid 1 takes State copies and runs windows
// on them, pid 2 serves fast reads, and pid 3 clones the newest stored
// snapshot and runs windows on its clones, under the same token value pid
// 0's next replay opens. Pid 0 keeps writing until the others finish. No
// stored snapshot's Key may change after the store.
func TestWindowSnapshotHammer(t *testing.T) {
	const n, keys = 4, 2048
	t.Run("empty", func(t *testing.T) {
		u := NewUniversal(seqspec.KV{}, NewSwapFAC(), n, WithLogGC(8))
		for k := int64(0); k < keys; k++ {
			u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
		}
		windowHammer(t, u, keys)
	})
}

// windowHammer is TestWindowSnapshotHammer's run on u, a KV construction
// for 4 pids holding keys keys, whose head carries a snapshot.
func windowHammer(t *testing.T, u *Universal, keys int64) {
	const n, waves, iters, width = 4, 60, 40, 16
	puts := func(rng *rand.Rand) []seqspec.Op {
		ops := make([]seqspec.Op, width)
		for i := range ops {
			ops[i] = seqspec.Op{Kind: "put", Args: []int64{rng.Int63n(keys + 64), rng.Int63()}}
		}
		return ops
	}
	newest := func() seqspec.State {
		for node := u.fac.Observe(); node != nil; node = node.Rest() {
			if s := node.Entry.snapshot(); s != nil {
				return s
			}
		}
		panic("no stored snapshot")
	}
	type seen struct {
		state seqspec.State
		key   string
	}
	var stored []seen // pid 3's snapshots, re-checked at the end
	var busy atomic.Int32
	busy.Store(n - 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for w := 0; w < waves || busy.Load() > 0; w++ {
			for _, op := range puts(rng) {
				u.Invoke(0, op)
			}
		}
	}()
	for pid := 1; pid < n; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer busy.Add(-1)
			rng := rand.New(rand.NewSource(int64(pid)))
			out := make([]int64, width)
			for i := 0; i < iters; i++ {
				switch pid {
				case 1:
					seqspec.ApplyAll(u.State(pid), puts(rng), out)
				case 2:
					u.Invoke(pid, seqspec.Op{Kind: "get", Args: []int64{rng.Int63n(keys)}})
				case 3:
					snap := newest()
					key := snap.Key()
					seqspec.ApplyAll(snap.Clone(), puts(rng), out)
					if snap.Key() != key {
						t.Error("a window on a clone of a stored snapshot changed the snapshot")
						return
					}
					stored = append(stored, seen{snap, key})
				}
			}
		}(pid)
	}
	wg.Wait()
	for i, s := range stored {
		if s.state.Key() != s.key {
			t.Fatalf("stored snapshot %d changed after it was stored", i)
		}
	}
}

// TestSnapshotInterval: Section 4.1's O(n) replay bound and response
// correctness under concurrent writers. The snapshot interval is fixed at
// k=1: every write stores a snapshot, so a replay walks past at most one
// committed entry per process plus one in flight, n·(k+1) = 2n.
func TestSnapshotInterval(t *testing.T) {
	t.Run("k=1", func(t *testing.T) { checkReplayBound(t, 2*replayN) })
}

const replayN = 4

// checkReplayBound runs replayN concurrent incrementers and checks the
// final count and that no replay walked more than bound entries.
func checkReplayBound(t *testing.T, bound int64) {
	const n, per = replayN, 200
	u := NewUniversal(seqspec.Counter{}, NewSwapFAC(), n)
	var wg sync.WaitGroup
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
	if got := u.Invoke(0, seqspec.Op{Kind: "get"}); got != n*per {
		t.Errorf("count = %d, want %d", got, n*per)
	}
	if _, _, max := u.ReplayStats(); max > bound {
		t.Errorf("replay max = %d, beyond the O(n) bound %d", max, bound)
	}
}

// TestOneSnapshotPerPass: the write path stores exactly one snapshot per
// executor pass (execute), and every write is its own pass.
func TestOneSnapshotPerPass(t *testing.T) {
	const n, per = 4, 200
	put := func(p, i int) seqspec.Op {
		return seqspec.Op{Kind: "put", Args: []int64{int64(i % 64), int64(p)}}
	}
	t.Run("unbatched", func(t *testing.T) {
		u := NewUniversal(seqspec.KV{}, NewSwapFAC(), n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					u.Invoke(p, put(p, i))
				}
			}()
		}
		wg.Wait()
		if stores := u.stats.snapStores.Load(); stores != n*per {
			t.Errorf("%d snapshot stores, want one per executor pass: %d", stores, n*per)
		}
	})
}
