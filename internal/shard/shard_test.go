package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
	"waitfree/internal/wfstats"
)

func mkSwap() core.FetchAndCons { return core.NewSwapFAC() }

// TestShardedKVSequential: the sharded map behaves as one KV map under a
// sequential workload, for several shard counts.
func TestShardedKVSequential(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewKV(shards, 1, mkSwap)
			ref := seqspec.KV{}.Init()
			rng := rand.New(rand.NewSource(int64(shards)))
			for i := 0; i < 500; i++ {
				var op seqspec.Op
				switch rng.Intn(4) {
				case 0:
					op = seqspec.Op{Kind: "put", Args: []int64{rng.Int63n(32), rng.Int63n(100)}}
				case 1:
					op = seqspec.Op{Kind: "get", Args: []int64{rng.Int63n(32)}}
				case 2:
					op = seqspec.Op{Kind: "del", Args: []int64{rng.Int63n(32)}}
				default:
					op = seqspec.Op{Kind: "len"}
				}
				if got, want := s.Invoke(0, op), ref.Apply(op); got != want {
					t.Fatalf("op %d %s: got %d, want %d", i, op, got, want)
				}
			}
		})
	}
}

// TestShardedKVRoutingStable: every operation on one key lands on the same
// shard, and keys spread across shards rather than piling onto one.
func TestShardedKVRoutingStable(t *testing.T) {
	s := NewKV(4, 1, mkSwap)
	hit := make(map[int]int)
	for k := int64(0); k < 64; k++ {
		i := s.ShardOf(k)
		if j := s.ShardOf(k); j != i {
			t.Fatalf("key %d routed to %d then %d", k, i, j)
		}
		hit[i]++
	}
	if len(hit) != 4 {
		t.Fatalf("64 keys hit only %d of 4 shards: %v", len(hit), hit)
	}
}

// TestShardedKVPerKeyLinearizable: a concurrent workload confined to keys
// of a single shard is linearizable against the unsharded KV spec — the
// front end adds no reordering beyond the underlying Universal's.
func TestShardedKVPerKeyLinearizable(t *testing.T) {
	const n = 3
	facs := map[string]func() core.FetchAndCons{
		"swap": mkSwap,
		"consensus-cas": func() core.FetchAndCons {
			return core.NewConsFAC(n, func() consensus.Object { return consensus.NewCAS(n) })
		},
	}
	for name, mk := range facs {
		t.Run(name, func(t *testing.T) {
			s := NewKV(4, n, mk)
			// Keys that all route to shard 0, so the whole history is one
			// linearizable object's.
			var keys []int64
			for k := int64(0); len(keys) < 3; k++ {
				if s.ShardOf(k) == 0 {
					keys = append(keys, k)
				}
			}
			var rec linearize.Recorder
			var wg sync.WaitGroup
			for p := 0; p < n; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for i := 0; i < 6; i++ {
						key := keys[rng.Intn(len(keys))]
						var op seqspec.Op
						switch rng.Intn(3) {
						case 0:
							op = seqspec.Op{Kind: "put", Args: []int64{key, rng.Int63n(50)}}
						case 1:
							op = seqspec.Op{Kind: "get", Args: []int64{key}}
						default:
							op = seqspec.Op{Kind: "del", Args: []int64{key}}
						}
						ts := rec.Invoke()
						resp := s.Invoke(p, op)
						rec.Complete(p, op, resp, ts)
					}
				}()
			}
			wg.Wait()
			h := rec.History()
			if res := linearize.Check(seqspec.KV{}, h); !res.OK {
				for _, e := range h {
					t.Logf("  %s", e)
				}
				t.Fatal("sharded per-key history not linearizable")
			}
		})
	}
}

// TestShardedKVConcurrentFinalState: concurrent writers over many keys;
// the final contents match a sequential merge of the per-key last writes.
func TestShardedKVConcurrentFinalState(t *testing.T) {
	const n, perKey = 4, 50
	s := NewKV(8, n, mkSwap)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				// Each pid owns key pid: the last write per key is known.
				s.Invoke(p, seqspec.Op{Kind: "put", Args: []int64{int64(p), int64(i)}})
			}
		}()
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		if got := s.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{int64(p)}}); got != perKey-1 {
			t.Errorf("key %d = %d, want %d", p, got, perKey-1)
		}
	}
	if got := s.Invoke(0, seqspec.Op{Kind: "len"}); got != n {
		t.Errorf("len = %d, want %d", got, n)
	}
}

// TestShardedFastReads: gets ride the read fast path on every shard.
func TestShardedFastReads(t *testing.T) {
	s := NewKV(2, 1, mkSwap)
	for k := int64(0); k < 8; k++ {
		s.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
	}
	for k := int64(0); k < 8; k++ {
		if got := s.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{k}}); got != k {
			t.Fatalf("get(%d) = %d", k, got)
		}
	}
	if got := s.FastReads(); got != 8 {
		t.Errorf("FastReads = %d, want 8", got)
	}
}

// TestShardedStatsSharedRegistry: shards that record into one registry,
// the server's setup, report each operation once. Summing every shard's
// view of the shared aggregate counted each S times. WithMetrics(nil)
// still selects the no-op mode.
func TestShardedStatsSharedRegistry(t *testing.T) {
	const shards, keys = 4, 10
	s := NewKV(shards, 1, mkSwap, core.WithMetrics(wfstats.NewRegistry()))
	for k := int64(0); k < keys; k++ {
		s.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
	}
	// One two-put run per shard through InvokeBatch: 2S Invokes.
	for sh := 0; sh < shards; sh++ {
		var wave []seqspec.Op
		for k := int64(0); len(wave) < 2; k++ {
			if s.ShardOf(k) == sh {
				wave = append(wave, seqspec.Op{Kind: "put", Args: []int64{k, k}})
			}
		}
		s.InvokeBatch(sh, 0, wave, make([]int64, 2))
	}
	for k := int64(0); k < keys; k++ {
		s.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{k}})
	}
	if got := s.FastReads(); got != keys {
		t.Errorf("FastReads = %d, want %d", got, keys)
	}
	// Every put replays once; every get reads its shard's settled head
	// from the head's snapshot and replays nothing.
	if ops, _, _ := s.ReplayStats(); ops != keys+2*shards {
		t.Errorf("ReplayStats ops = %d, want %d", ops, keys+2*shards)
	}
	off := NewKV(shards, 1, mkSwap, core.WithMetrics(nil))
	off.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{1, 1}})
	off.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{1}})
	if got, _, _ := off.ReplayStats(); got != 0 || off.FastReads() != 0 {
		t.Errorf("no-op mode: ReplayStats ops %d, FastReads %d, want 0 and 0", got, off.FastReads())
	}
}

// TestKVRouterUnknownOpPanics pins KVRouter's panic contract: an op kind
// the router does not recognize must fail loudly at the front door, with
// this exact message, rather than be guessed onto some shard.
func TestKVRouterUnknownOpPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("KVRouter accepted an unknown op kind")
		}
		const want = "shard: kv: unknown op frobnicate"
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	KVRouter(seqspec.Op{Kind: "frobnicate"})
}

// TestShardedLogGC: per-shard low-water marks advance independently and the
// aggregated accessors report them. Both processes touch every shard, so
// each shard's mark reflects both registers; a pid that writes only some
// shards stays detached on the others and doesn't pin them (see
// TestShardedDetach).
func TestShardedLogGC(t *testing.T) {
	const shards, procs, keys = 2, 2, 32
	s := NewKV(shards, procs, mkSwap, core.WithLogGC(1))
	for round := 0; round < 40; round++ {
		for p := 0; p < procs; p++ {
			for k := int64(0); k < keys; k++ {
				s.Invoke(p, seqspec.Op{Kind: "put", Args: []int64{k, int64(round)}})
			}
		}
	}
	marks := s.Anchors()
	if len(marks) != shards {
		t.Fatalf("Anchors() has %d entries, want %d", len(marks), shards)
	}
	var wantRetired int64
	for i, m := range marks {
		if m == 0 {
			t.Errorf("shard %d never advanced its mark", i)
			continue
		}
		wantRetired += m - 1
	}
	if got := s.Retired(); got != wantRetired {
		t.Errorf("Retired() = %d, want the summed per-shard %d", got, wantRetired)
	}
	// Truncation must not disturb per-key state.
	for k := int64(0); k < keys; k++ {
		if got := s.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{k}}); got != 39 {
			t.Fatalf("get(%d) = %d after GC, want 39", k, got)
		}
	}
}

// TestShardedDetach: the cross-shard half of the departed-client fix. A
// leased pid typically writes only the shards its keys hash to; registers
// start detached, so it never pins the shards it skipped, and Detach
// releases its pin on every shard at once — the marks keep advancing for
// the surviving pid where they would otherwise freeze.
func TestShardedDetach(t *testing.T) {
	const shards, procs = 2, 2
	s := NewKV(shards, procs, mkSwap, core.WithLogGC(1))
	// Keys confined to each shard, found via the exported router hash.
	keyOn := make([]int64, shards)
	for i := range keyOn {
		for k := int64(0); ; k++ {
			if s.ShardOf(k) == i {
				keyOn[i] = k
				break
			}
		}
	}
	// pid 1's brief session touches only shard 0; pid 0 works both shards.
	for i := 0; i < 10; i++ {
		s.Invoke(1, seqspec.Op{Kind: "put", Args: []int64{keyOn[0], int64(i)}})
	}
	drive := func() {
		for i := 0; i < 80; i++ {
			for sh := 0; sh < shards; sh++ {
				s.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{keyOn[sh], int64(i)}})
			}
		}
	}
	drive()
	marks := s.Anchors()
	if marks[1] <= marks[0] {
		t.Errorf("shard 1 (pid 1 never attached there) mark %d should outrun shard 0's pinned %d",
			marks[1], marks[0])
	}
	pinned := marks[0]
	drive()
	if m := s.Anchors()[0]; m != pinned {
		t.Fatalf("shard 0 mark moved %d -> %d while the idle pid was attached", pinned, m)
	}
	s.Detach(1)
	drive()
	if m := s.Anchors()[0]; m <= pinned {
		t.Errorf("shard 0 mark = %d after Detach(1), still pinned at %d", m, pinned)
	}
	if got := s.Invoke(1, seqspec.Op{Kind: "get", Args: []int64{keyOn[0]}}); got != 79 {
		t.Errorf("re-attached get = %d, want 79", got)
	}
}

// TestImbalanceGaugeExtremeCounts pins the imbalance gauge's arithmetic at
// counter values a long-lived server actually reaches: the old integer
// form max·100·S/total overflowed int64 once the hottest shard passed
// 2^63/(100·S) ops and reported a negative percentage. The division must
// happen in float64.
func TestImbalanceGaugeExtremeCounts(t *testing.T) {
	reg := wfstats.NewRegistry()
	s := NewKV(4, 1, mkSwap)
	s.Instrument(reg)
	// A plausibly skewed load after ~a year at full tilt: one hot shard.
	hot := int64(3) << 61 // ~6.9e18, within int64, far past the overflow point
	s.shardOps[0].Add(hot)
	for i := 1; i < 4; i++ {
		s.shardOps[i].Add(hot / 4)
	}
	var got int64 = -1
	for _, sm := range reg.Snapshot() {
		if sm.Name == "shard.imbalance_pct" {
			got = sm.Value
		}
	}
	// max/total = 4/7 of the load on one of 4 shards -> 228%.
	if got != 228 {
		t.Errorf("imbalance_pct = %d at extreme counts, want 228 (negative means the product overflowed)", got)
	}
	// And the balanced fixed point still reads 100.
	reg2 := wfstats.NewRegistry()
	s2 := NewKV(4, 1, mkSwap)
	s2.Instrument(reg2)
	for i := 0; i < 4; i++ {
		s2.shardOps[i].Add(hot / 4)
	}
	for _, sm := range reg2.Snapshot() {
		if sm.Name == "shard.imbalance_pct" && sm.Value != 100 {
			t.Errorf("balanced imbalance_pct = %d, want 100", sm.Value)
		}
	}
}
