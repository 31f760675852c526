package core

import (
	"math/rand"
	"strings"
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
// stored, so a call applies exactly its own ops: the batch's earlier entries
// its replay walks past, plus the newest. The batched case is a wave of six,
// whose entries come from two chunks. The pre-state rule would add one
// apply per replay, for the entry the replay stopped at. In fast-read-miss
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
		{"batched", nil, func(u *Universal) {
			u.InvokeBatch(0, []seqspec.Op{put, put, put, put, put, put}, make([]int64, 6))
		}, 6, 0},
		{"invoke-batch", nil, func(u *Universal) {
			u.InvokeBatch(0, []seqspec.Op{put, put, put, put}, make([]int64, 4))
		}, 4, 0},
		{"fast-read-miss", nil, func(u *Universal) {
			e, prior := stall(u, 1, put) // an unsettled head: the read below replays
			u.Invoke(0, get)
			u.execute(1, e, prior, false)
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
	fill := make([]seqspec.Op, keys)
	for k := range fill {
		fill[k] = seqspec.Op{Kind: "put", Args: []int64{int64(k), int64(k)}}
		base.Apply(fill[k])
	}
	u.InvokeBatch(0, fill, make([]int64, keys))
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

// TestSnapshotImpliesResult: every write path publishes an entry's response
// before storing its snapshot, so a scanner that sees a snapshot must also
// see the result. Writers race a scanner walking the decided list, over
// both fetch-and-cons forms: batched, every writer runs InvokeBatch waves of
// three; unbatched, all but one writer Invoke. Run it under -race.
func TestSnapshotImpliesResult(t *testing.T) {
	const n, per = 4, 300
	makers := facMakers(n)
	for _, name := range []string{"swap/batched", "consensus-cas/batched", "swap/unbatched"} {
		t.Run(name, func(t *testing.T) {
			form, mode, _ := strings.Cut(name, "/")
			fac := makers[form]()
			u := NewUniversal(seqspec.KV{}, fac, n)
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						op := seqspec.Op{Kind: "put", Args: []int64{int64(i % 64), int64(p)}}
						if p == n-1 || mode == "batched" {
							u.InvokeBatch(p, []seqspec.Op{op, op, op}, make([]int64, 3))
							continue
						}
						u.Invoke(p, op)
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			checked := 0
			for scanning := true; scanning; {
				select {
				case <-done:
					scanning = false // one last scan over the final list
				default:
				}
				depth := 0
				for node := fac.Observe(); node != nil && depth < 64; node = node.Rest() {
					depth++
					if node.Entry.snapshot() == nil {
						continue
					}
					checked++
					if _, ok := node.Entry.Result(); !ok {
						t.Fatalf("%s carries a snapshot but no published result", node.Entry)
					}
				}
			}
			if checked == 0 {
				t.Fatal("the scanner saw no snapshot")
			}
			t.Logf("%d snapshots checked", checked)
		})
	}
}

// TestWindowSnapshotHammer is the edit window's sharing contract under
// -race. Pid 0 runs InvokeBatch waves of puts into a 2 048-key KV, each
// wave one ApplyAll window on a clone of the newest snapshot. Meanwhile pid
// 1 takes State copies and runs windows on them, pid 2 serves fast reads,
// and pid 3 clones the newest stored snapshot and runs windows on its
// clones, under the same token value pid 0's next wave opens. Pid 0 keeps
// writing until the others finish. No stored snapshot's Key may change
// after the store.
//
// The seeded input starts the construction from a 2 048-key state
// (seqspec.KVFrom), as a recovered server shard starts, with truncation
// off: no entry stores a snapshot, so every replay clones the shared seed,
// and pid 3 runs its windows on clones of the seed, which must not change.
func TestWindowSnapshotHammer(t *testing.T) {
	const n, keys = 4, 2048
	t.Run("empty", func(t *testing.T) {
		u := NewUniversal(seqspec.KV{}, NewSwapFAC(), n, WithLogGC(8))
		fill := make([]seqspec.Op, keys)
		for k := range fill {
			fill[k] = seqspec.Op{Kind: "put", Args: []int64{int64(k), int64(k)}}
		}
		u.InvokeBatch(0, fill, make([]int64, keys))
		windowHammer(t, u, keys, nil)
	})
	t.Run("seeded", func(t *testing.T) {
		pairs := make(map[int64]int64, keys)
		for k := int64(0); k < keys; k++ {
			pairs[k] = k
		}
		seed := seqspec.KVOf(pairs)
		u := NewUniversal(seqspec.KVFrom(seed), NewSwapFAC(), n, WithoutTruncation())
		windowHammer(t, u, keys, seed)
	})
}

// windowHammer is TestWindowSnapshotHammer's run on u, a KV construction
// for 4 pids holding keys keys. Pid 3 falls back to seed while no entry
// stores a snapshot.
func windowHammer(t *testing.T, u *Universal, keys int64, seed seqspec.State) {
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
		return seed
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
		out := make([]int64, width)
		for w := 0; w < waves || busy.Load() > 0; w++ {
			u.InvokeBatch(0, puts(rng), out)
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
	t.Run("k=1", func(t *testing.T) { checkReplayBound(t, 1, 2*replayN) })
}

// TestBatchedSnapshotBound: the replay bound survives InvokeBatch waves.
// Only a wave's newest entry stores a snapshot, and it does so before the
// pid conses its next wave, so above the newest snapshot a replay finds at
// most one unfinished wave of three per pid: 3n ≤ 4n.
func TestBatchedSnapshotBound(t *testing.T) {
	t.Run("k=1", func(t *testing.T) { checkReplayBound(t, 3, 4*replayN) })
}

const replayN = 4

// checkReplayBound runs replayN concurrent incrementers, each in InvokeBatch
// waves of width incs (a wave of one is an Invoke), and checks the final
// count and that no replay walked more than bound entries.
func checkReplayBound(t *testing.T, width int, bound int64) {
	const n, per = replayN, 200
	u := NewUniversal(seqspec.Counter{}, NewSwapFAC(), n)
	wave := make([]seqspec.Op, width)
	for i := range wave {
		wave[i] = seqspec.Op{Kind: "inc"}
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int64, width)
			for i := 0; i < per; i += width {
				u.InvokeBatch(p, wave[:min(width, per-i)], out)
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

// TestOneSnapshotPerPass: each write path stores exactly one snapshot per
// executor pass (execute). Unbatched, every write is its own pass. An
// InvokeBatch wave is one pass, whatever stragglers it resolves: fixed
// waves of three, and batched waves of one to six, where a wave of one is
// an Invoke and waves of five or six take entries from two chunks.
func TestOneSnapshotPerPass(t *testing.T) {
	const n, per = 4, 200
	put := func(p, i int) seqspec.Op {
		return seqspec.Op{Kind: "put", Args: []int64{int64(i % 64), int64(p)}}
	}
	wave := func(u *Universal, p, width int, op seqspec.Op) {
		ops := make([]seqspec.Op, width)
		for j := range ops {
			ops[j] = op
		}
		u.InvokeBatch(p, ops, make([]int64, width))
	}
	cases := []struct {
		name  string
		write func(u *Universal, p, i int)
	}{
		{"unbatched", func(u *Universal, p, i int) { u.Invoke(p, put(p, i)) }},
		{"batched", func(u *Universal, p, i int) { wave(u, p, 1+(p+i)%6, put(p, i)) }},
		{"invoke-batch", func(u *Universal, p, i int) { wave(u, p, 3, put(p, i)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := NewUniversal(seqspec.KV{}, NewSwapFAC(), n)
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						c.write(u, p, i)
					}
				}()
			}
			wg.Wait()
			if stores := u.stats.snapStores.Load(); stores != n*per {
				t.Errorf("%d snapshot stores, want one per executor pass: %d", stores, n*per)
			}
		})
	}
}
