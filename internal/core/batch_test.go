package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

// TestBatchedLinearizable: concurrent writers (and a sprinkling of fast
// reads) on a batched Universal, over both fetch-and-cons constructions; the
// history must linearize even though most responses were computed and
// published by some *other* process's executor pass. Run under -race this
// also exercises the result-slot publication protocol.
func TestBatchedLinearizable(t *testing.T) {
	const n = 4
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Queue{}, seqspec.Bank{Accounts: 4}}
	for name, mk := range facMakers(n) {
		for _, obj := range objects {
			t.Run(name+"/"+obj.Name(), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					u := NewUniversal(obj, mk(), n, WithBatching())
					var rec linearize.Recorder
					var wg sync.WaitGroup
					for p := 0; p < n; p++ {
						p := p
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(trial*n + p)))
							for i := 0; i < 6; i++ {
								// Write-heavy: batching only matters on the
								// write path, so lean the mix the other way
								// from the fast-read test.
								op := fastReadMixOp(obj.Name(), rng, false)
								ts := rec.Invoke()
								resp := u.Invoke(p, op)
								rec.Complete(p, op, resp, ts)
							}
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

// TestBatchedExecutorPublishes pins the helping mechanism itself,
// deterministically: an entry consed onto the log but never executed by its
// announcer (a writer that stalled right after its cons) gets its response
// computed and published by the next writer's executor pass.
func TestBatchedExecutorPublishes(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2, WithBatching())

	// Announce pid 1's inc by hand — the state a real writer is in after
	// fetch-and-cons returns and before it replays.
	stalled := &Entry{Pid: 1, Seq: 1, Op: seqspec.Op{Kind: "inc"}}
	fac.FetchAndCons(1, stalled)
	if _, ok := stalled.Result(); ok {
		t.Fatal("result slot full before any executor ran")
	}

	// Pid 0's write replays through the stalled entry and must publish its
	// response: the stalled inc saw count 0.
	if resp := u.Invoke(0, seqspec.Op{Kind: "inc"}); resp != 1 {
		t.Fatalf("executor's own inc = %d, want 1 (applied after the stalled inc)", resp)
	}
	resp, ok := stalled.Result()
	if !ok {
		t.Fatal("executor pass did not publish the stalled entry's response")
	}
	if resp != 0 {
		t.Fatalf("published response = %d, want 0", resp)
	}
	if batches, _, max := u.BatchStats(); batches != 1 || max != 2 {
		t.Fatalf("BatchStats = (%d, _, %d), want one executor pass settling 2 responses", batches, max)
	}
}

// stallFAC wraps a FetchAndCons and blocks one pid's calls after the inner
// cons has taken effect: the entry is in the decided log, visible to every
// other process, but its announcer is frozen before it can replay or
// publish. This is the adversary the bounded help-wait is designed for — a
// stalled batch winner.
//
//wf:blocking test instrumentation: stalls one pid on purpose to prove the others stay wait-free
type stallFAC struct {
	inner    FetchAndCons
	stallPid int
	consed   chan struct{} // closed once the stalled pid's cons has taken effect
	gate     chan struct{} // the stalled pid blocks here until the test releases it
}

func (s *stallFAC) FetchAndCons(pid int, e *Entry) *Node {
	prior := s.inner.FetchAndCons(pid, e)
	if pid == s.stallPid {
		close(s.consed)
		<-s.gate
	}
	return prior
}

func (s *stallFAC) Observe() *Node { return s.inner.Observe() }

// TestBatchedStalledWinner: pid 0 conses an inc and freezes; pids 1..3 run
// hundreds of increments meanwhile. They must all complete (bounded help-wait
// then self-execution — a stalled executor delays, never blocks), the frozen
// entry's response must be published by someone else's pass, and the full
// response set must be exactly the fetch-and-increment permutation 0..total-1.
func TestBatchedStalledWinner(t *testing.T) {
	const n, per = 4, 150
	s := &stallFAC{inner: NewSwapFAC(), stallPid: 0,
		consed: make(chan struct{}), gate: make(chan struct{})}
	u := NewUniversal(seqspec.Counter{}, s, n, WithBatching())

	// The stalled winner conses first — its entry is the oldest in the log,
	// in every later writer's prior — then hangs until released.
	stalledResp := make(chan int64, 1)
	go func() { stalledResp <- u.Invoke(0, seqspec.Op{Kind: "inc"}) }()
	<-s.consed

	respCh := make(chan int64, (n-1)*per+1)
	var wg sync.WaitGroup
	for p := 1; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				respCh <- u.Invoke(p, seqspec.Op{Kind: "inc"})
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("writers did not complete while one winner was stalled: helping blocked instead of bounding")
	}

	// Release the frozen winner; its response was long since published by a
	// concurrent executor, so it returns on the helped path.
	close(s.gate)
	select {
	case r := <-stalledResp:
		respCh <- r
	case <-time.After(60 * time.Second):
		t.Fatal("released winner did not return")
	}
	close(respCh)

	// inc returns the pre-increment count, so the n·per+1 responses must be
	// exactly {0, ..., n·per} — each value once. Any lost, duplicated or
	// misordered publication breaks the permutation.
	total := (n-1)*per + 1
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
	if u.Helped() == 0 {
		t.Error("stalled winner returned but nothing was counted helped")
	}
}

// TestBatchingComposesWithOptions: WithBatching must compose with the
// fast-read option — with fast reads off, read-only operations take the
// batched write path too.
func TestBatchingComposesWithOptions(t *testing.T) {
	const n = 4
	obj := seqspec.KV{}
	combos := []struct {
		name string
		opts []Option
	}{
		{"no-fast-reads", []Option{WithBatching(), WithoutFastReads()}},
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
						for i := 0; i < 6; i++ {
							op := fastReadMixOp("kv", rng, false)
							ts := rec.Invoke()
							resp := u.Invoke(p, op)
							rec.Complete(p, op, resp, ts)
						}
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
					t.Fatalf("no executor passes recorded: batching lost under %s", combo.name)
				}
			}
		})
	}
}

// TestBatchedMatchesUnbatched: with a fixed single-process operation
// sequence, the batched write path returns exactly what the unbatched one
// does — the uncontended differential (the contended one is the
// linearizability hammer above).
func TestBatchedMatchesUnbatched(t *testing.T) {
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Counter{}, seqspec.Queue{}}
	for _, obj := range objects {
		t.Run(obj.Name(), func(t *testing.T) {
			batched := NewUniversal(obj, NewSwapFAC(), 1, WithBatching())
			plain := NewUniversal(obj, NewSwapFAC(), 1)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 400; i++ {
				var op seqspec.Op
				switch obj.Name() {
				case "counter":
					op = seqspec.Op{Kind: "inc"}
					if rng.Intn(3) == 0 {
						op = seqspec.Op{Kind: "get"}
					}
				default:
					op = fastReadMixOp(obj.Name(), rng, i%2 == 0)
				}
				if got, want := batched.Invoke(0, op), plain.Invoke(0, op); got != want {
					t.Fatalf("op %d %s: batched %d, unbatched %d", i, op, got, want)
				}
			}
			if helped := batched.Helped(); helped != 0 {
				t.Errorf("single-process run counted %d helped ops", helped)
			}
		})
	}
}

// TestInvokeBatchAllocs pins InvokeBatch's steady-state allocations for a
// 16-op batch: each entry costs one object, its Entry, which carries its
// own swap-cons cell and argument words, and the wave costs the replay's
// snapshot Clone. The stored snapshot is the replay's own state, not a
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
	if want := float64(len(ops) + 1); got != want {
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
// one ApplyAll window, so each trie node the 16 paths share — the root
// above all — is copied once per wave instead of once per put. Each entry
// still costs its Entry (cell and argument words included) and the wave
// its Clone; the 16 paths of these keys hold 32 distinct nodes. A path copy
// per put would allocate 66 times.
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
	if want := float64(len(ops) + 1 + 32); got != want {
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
// wave.
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
	if got, limit := bytesPerRun(50, func() { u.InvokeBatch(0, ops, out) }), 14300.0; got > limit {
		t.Errorf("16-put InvokeBatch into %d keys allocates %.0f bytes, want <= %.0f", keys, got, limit)
	}
	put := seqspec.Op{Kind: "put", Args: []int64{77, 70}}
	if got, limit := bytesPerRun(50, func() { u.Invoke(0, put) }), 1800.0; got > limit {
		t.Errorf("a put into %d keys allocates %.0f bytes, want <= %.0f", keys, got, limit)
	}
}
