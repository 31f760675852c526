package waitfree_test

import (
	"fmt"
	"sync"
	"testing"

	"waitfree"
)

func ExampleNew() {
	const n = 2
	fac := waitfree.NewConsensusFetchAndCons(n, func() waitfree.Consensus {
		return waitfree.NewCASConsensus(n)
	})
	q := waitfree.New(waitfree.Queue{}, fac, n)

	q.Invoke(0, waitfree.Op{Kind: "enq", Args: []int64{42}})
	fmt.Println(q.Invoke(1, waitfree.Op{Kind: "deq"}))
	// Output: 42
}

func ExampleNewSwapFetchAndCons() {
	c := waitfree.New(waitfree.Counter{}, waitfree.NewSwapFetchAndCons(), 1)
	c.Invoke(0, waitfree.Op{Kind: "inc"})
	c.Invoke(0, waitfree.Op{Kind: "add", Args: []int64{41}})
	fmt.Println(c.Invoke(0, waitfree.Op{Kind: "get"}))
	// Output: 42
}

func ExampleNewCASConsensus() {
	obj := waitfree.NewCASConsensus(3)
	// A lone participant decides its own input even if everyone else
	// crashed before starting — that is wait-freedom.
	fmt.Println(obj.Decide(1, 7))
	// Output: 7
}

// TestFacadeConsensusConstructors exercises every consensus constructor
// through the public API.
func TestFacadeConsensusConstructors(t *testing.T) {
	tests := []struct {
		name string
		n    int
		mk   func() waitfree.Consensus
	}{
		{name: "cas", n: 4, mk: func() waitfree.Consensus { return waitfree.NewCASConsensus(4) }},
		{name: "tas", n: 2, mk: func() waitfree.Consensus { return waitfree.NewTASConsensus() }},
		{name: "queue", n: 2, mk: func() waitfree.Consensus { return waitfree.NewQueueConsensus() }},
		{name: "augqueue", n: 4, mk: func() waitfree.Consensus { return waitfree.NewAugQueueConsensus(4) }},
		{name: "move", n: 4, mk: func() waitfree.Consensus { return waitfree.NewMoveConsensus(4) }},
		{name: "memswap", n: 4, mk: func() waitfree.Consensus { return waitfree.NewMemSwapConsensus(4) }},
		{name: "assign", n: 4, mk: func() waitfree.Consensus { return waitfree.NewAssignConsensus(4) }},
		{name: "assign2phase", n: 4, mk: func() waitfree.Consensus { return waitfree.NewAssign2PhaseConsensus(3) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for trial := 0; trial < 30; trial++ {
				obj := tt.mk()
				results := make([]int64, tt.n)
				var wg sync.WaitGroup
				for p := 0; p < tt.n; p++ {
					p := p
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[p] = obj.Decide(p, int64(1000+p))
					}()
				}
				wg.Wait()
				for p := 1; p < tt.n; p++ {
					if results[p] != results[0] {
						t.Fatalf("trial %d: disagreement", trial)
					}
				}
			}
		})
	}
}

// TestFacadeObjects drives each prebuilt sequential spec through the
// universal construction via the public API.
func TestFacadeObjects(t *testing.T) {
	type step struct {
		op   waitfree.Op
		want int64
	}
	tests := []struct {
		name  string
		obj   waitfree.Object
		steps []step
	}{
		{name: "register", obj: waitfree.Register{}, steps: []step{
			{op: waitfree.Op{Kind: "write", Args: []int64{9}}, want: 0},
			{op: waitfree.Op{Kind: "read"}, want: 9},
		}},
		{name: "stack", obj: waitfree.Stack{}, steps: []step{
			{op: waitfree.Op{Kind: "push", Args: []int64{1}}, want: 0},
			{op: waitfree.Op{Kind: "push", Args: []int64{2}}, want: 0},
			{op: waitfree.Op{Kind: "pop"}, want: 2},
		}},
		{name: "set", obj: waitfree.Set{}, steps: []step{
			{op: waitfree.Op{Kind: "insert", Args: []int64{5}}, want: 1},
			{op: waitfree.Op{Kind: "contains", Args: []int64{5}}, want: 1},
			{op: waitfree.Op{Kind: "removeMin"}, want: 5},
		}},
		{name: "pqueue", obj: waitfree.PQueue{}, steps: []step{
			{op: waitfree.Op{Kind: "insert", Args: []int64{9}}, want: 0},
			{op: waitfree.Op{Kind: "insert", Args: []int64{3}}, want: 0},
			{op: waitfree.Op{Kind: "deleteMin"}, want: 3},
		}},
		{name: "kv", obj: waitfree.KV{}, steps: []step{
			{op: waitfree.Op{Kind: "put", Args: []int64{1, 10}}, want: waitfree.Empty},
			{op: waitfree.Op{Kind: "get", Args: []int64{1}}, want: 10},
		}},
		{name: "bank", obj: waitfree.Bank{Accounts: 2}, steps: []step{
			{op: waitfree.Op{Kind: "deposit", Args: []int64{0, 100}}, want: 100},
			{op: waitfree.Op{Kind: "transfer", Args: []int64{0, 1, 30}}, want: 1},
			{op: waitfree.Op{Kind: "balance", Args: []int64{1}}, want: 30},
		}},
		{name: "list", obj: waitfree.List{}, steps: []step{
			{op: waitfree.Op{Kind: "cons", Args: []int64{4}}, want: 0},
			{op: waitfree.Op{Kind: "head"}, want: 4},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u := waitfree.New(tt.obj, waitfree.NewSwapFetchAndCons(), 1)
			for i, s := range tt.steps {
				if got := u.Invoke(0, s.op); got != s.want {
					t.Fatalf("step %d %s: got %d, want %d", i, s.op, got, s.want)
				}
			}
		})
	}
}

// TestWithoutTruncationOption exercises the option through the façade.
func TestWithoutTruncationOption(t *testing.T) {
	u := waitfree.New(waitfree.Counter{}, waitfree.NewSwapFetchAndCons(), 2,
		waitfree.WithoutTruncation())
	for i := 0; i < 50; i++ {
		u.Invoke(0, waitfree.Op{Kind: "inc"})
	}
	_, _, max := u.ReplayStats()
	if max < 40 {
		t.Errorf("untruncated replay max = %d, expected to grow with the log", max)
	}
}

// TestHandles: per-process handles drive the object concurrently.
func TestHandles(t *testing.T) {
	const n = 4
	u := waitfree.New(waitfree.Counter{}, waitfree.NewSwapFetchAndCons(), n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		h := u.Handle(p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Invoke(waitfree.Op{Kind: "inc"})
			}
		}()
	}
	wg.Wait()
	if got := u.Handle(0).Invoke(waitfree.Op{Kind: "get"}); got != n*100 {
		t.Errorf("count = %d, want %d", got, n*100)
	}
}

// TestFastReadsFacade: read-only ops are counted as fast reads and agree
// with the write path.
func TestFastReadsFacade(t *testing.T) {
	u := waitfree.New(waitfree.KV{}, waitfree.NewSwapFetchAndCons(), 1)
	u.Invoke(0, waitfree.Op{Kind: "put", Args: []int64{1, 42}})
	if got := u.Invoke(0, waitfree.Op{Kind: "get", Args: []int64{1}}); got != 42 {
		t.Fatalf("get = %d, want 42", got)
	}
	if got := u.FastReads(); got != 1 {
		t.Errorf("FastReads = %d, want 1", got)
	}
}

// TestLogGCDefaults pins the facade defaults: New leaves the log GC off
// (the paper-faithful ever-growing log), NewShardedKV turns it on, and
// WithoutLogGC switches the sharded default back off.
func TestLogGCDefaults(t *testing.T) {
	put := func(k, v int64) waitfree.Op {
		return waitfree.Op{Kind: "put", Args: []int64{k, v}}
	}

	plain := waitfree.New(waitfree.KV{}, waitfree.NewSwapFetchAndCons(), 1)
	withGC := waitfree.New(waitfree.KV{}, waitfree.NewSwapFetchAndCons(), 1,
		waitfree.WithLogGC(1))
	for i := int64(0); i < 300; i++ {
		plain.Invoke(0, put(i%8, i))
		withGC.Invoke(0, put(i%8, i))
	}
	if r := plain.Retired(); r != 0 {
		t.Errorf("New default retired %d entries, want 0 (log GC off)", r)
	}
	if r := withGC.Retired(); r == 0 {
		t.Error("WithLogGC(1) retired nothing after 300 writes")
	}

	// The sharded default (every = core.DefaultGCEvery = 64) needs enough
	// writes per shard per process for every register to pass a mark.
	sharded := waitfree.NewShardedKV(2, 1, waitfree.NewSwapFetchAndCons)
	off := waitfree.NewShardedKV(2, 1, waitfree.NewSwapFetchAndCons,
		waitfree.WithoutLogGC())
	for i := int64(0); i < 2000; i++ {
		sharded.Invoke(0, put(i%16, i))
		off.Invoke(0, put(i%16, i))
	}
	if r := sharded.Retired(); r == 0 {
		t.Error("NewShardedKV default retired nothing, want log GC on")
	}
	if r := off.Retired(); r != 0 {
		t.Errorf("NewShardedKV WithoutLogGC retired %d entries, want 0", r)
	}
	// Truncation must not disturb state: the last write of key k was
	// put(k, 1984+k) on iteration i = 1984+k.
	for k := int64(0); k < 16; k++ {
		if got, want := sharded.Invoke(0, waitfree.Op{Kind: "get", Args: []int64{k}}), 1984+k; got != want {
			t.Fatalf("get(%d) = %d after GC, want %d", k, got, want)
		}
	}
}

func ExampleNewShardedKV() {
	const shards, procs = 4, 2
	kv := waitfree.NewShardedKV(shards, procs, waitfree.NewSwapFetchAndCons)
	kv.Invoke(0, waitfree.Op{Kind: "put", Args: []int64{7, 700}})
	kv.Invoke(1, waitfree.Op{Kind: "put", Args: []int64{8, 800}})
	fmt.Println(kv.Invoke(0, waitfree.Op{Kind: "get", Args: []int64{8}}))
	fmt.Println(kv.Invoke(1, waitfree.Op{Kind: "len"}))
	// Output:
	// 800
	// 2
}

func ExampleUniversal_Handle() {
	u := waitfree.New(waitfree.Counter{}, waitfree.NewSwapFetchAndCons(), 2)
	h := u.Handle(0)
	h.Invoke(waitfree.Op{Kind: "inc"})
	fmt.Println(h.Invoke(waitfree.Op{Kind: "get"}), h.Pid())
	// Output: 1 0
}
