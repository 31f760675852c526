package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

func listLen(head *Node) int {
	n := 0
	for c := head; c != nil; c = c.Rest() {
		n++
	}
	return n
}

var inc = seqspec.Op{Kind: "inc"}
var get = seqspec.Op{Kind: "get"}

// stall conses op for pid through the fetch-and-cons and leaves it in
// flight, as a writer stalled between its cons and its replay would: the
// head it builds carries no snapshot, so a fast read from it goes through
// the read cache instead of the settled head's snapshot. It returns the
// entry and its prior list, for a test that later runs the writer's
// execute. The stalled pid never attaches, so it pins no GC mark.
func stall(u *Universal, pid int, op seqspec.Op) (*Entry, *Node) {
	e := newEntry(pid, u.seqs[pid].Add(1), op)
	return e, u.fac.FetchAndCons(pid, e)
}

// TestLogGCRetiresTail: the headline behavior. With the low-water-mark GC
// on, a sequentially driven pair of processes retires almost the whole log:
// the reachable list ends exactly at the anchor node, Node.Len stays the
// stable all-time index, and the object's state survives truncation.
func TestLogGCRetiresTail(t *testing.T) {
	const rounds = 200
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2, WithLogGC(1))
	for i := 0; i < rounds; i++ {
		u.Invoke(0, inc)
		u.Invoke(1, inc)
	}
	total := 2 * rounds
	if got := fac.Head().Len; got != total {
		t.Fatalf("head.Len = %d, want the all-time log length %d", got, total)
	}
	anchor := u.Anchor()
	if anchor == 0 {
		t.Fatal("no anchor swing after sequentially alternating writers")
	}
	if min := u.Min(); min < anchor {
		t.Errorf("Min() = %d below the applied anchor %d", min, anchor)
	}
	if got, want := u.Retired(), anchor-1; got != want {
		t.Errorf("Retired() = %d, want anchor-1 = %d", got, want)
	}
	// The surviving list runs from the head down to exactly the anchor node.
	if got, want := listLen(fac.Head()), total-int(anchor)+1; got != want {
		t.Errorf("reachable list has %d nodes, want head..anchor = %d", got, want)
	}
	if got := listLen(fac.Head()); got > 16 {
		t.Errorf("live list %d nodes; the GC should keep it O(n)", got)
	}
	// State is intact: a read replays from the truncated list.
	if got := u.Invoke(0, get); got != int64(total) {
		t.Errorf("counter reads %d after truncation, want %d", got, total)
	}
}

// TestLogGCOffByDefault: NewUniversal without WithLogGC never severs.
func TestLogGCOffByDefault(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2)
	for i := 0; i < 50; i++ {
		u.Invoke(0, inc)
		u.Invoke(1, inc)
	}
	if a := u.Anchor(); a != 0 {
		t.Errorf("Anchor() = %d with GC off, want 0", a)
	}
	if m := u.Min(); m != 0 {
		t.Errorf("Min() = %d with GC off, want 0", m)
	}
	if got := listLen(fac.Head()); got != 100 {
		t.Errorf("reachable list has %d nodes with GC off, want the full 100", got)
	}
}

// TestLogGCRequiresTruncation: snapshots are the retention anchors, so
// WithoutTruncation switches the GC off no matter what WithLogGC asked for.
func TestLogGCRequiresTruncation(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2, WithLogGC(1), WithoutTruncation())
	for i := 0; i < 50; i++ {
		u.Invoke(0, inc)
		u.Invoke(1, inc)
	}
	if a := u.Anchor(); a != 0 {
		t.Errorf("Anchor() = %d without truncation, want 0", a)
	}
	if got := listLen(fac.Head()); got != 100 {
		t.Errorf("reachable list has %d nodes, want the full 100", got)
	}
}

func TestWithLogGCValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithLogGC(0) must panic")
		}
	}()
	NewUniversal(seqspec.Counter{}, NewSwapFAC(), 1, WithLogGC(0))
}

// TestAnchorIsSnapshotNode pins the invariant the replay-safety argument
// leans on: every value an observed-prefix register ever holds is some
// completed replay's stopping snapshot index, so the collective minimum —
// the index the swing severs at — always lands on a snapshot-carrying
// node, and a replay that walks all the way down to the anchor stops at
// its snapshot instead of reading the severed pointer. Pid 2 leaves an
// entry in flight every third round (stall), which stores no snapshot, so
// the invariant is not vacuous.
func TestAnchorIsSnapshotNode(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 3, WithLogGC(1))
	for i := 0; i < 120; i++ {
		u.Invoke(0, inc)
		if i%3 == 2 {
			stall(u, 2, inc)
		}
		u.Invoke(1, inc)
		u.Invoke(0, get)
	}
	bare := 0
	for n := fac.Head(); n != nil; n = n.Rest() {
		if n.Entry.snapshot() == nil {
			bare++
		}
	}
	if bare == 0 {
		t.Fatal("every live entry carries a snapshot: the stalls left nothing sparse to test")
	}
	anchor := u.Anchor()
	if anchor == 0 {
		t.Fatal("no anchor swing after sequentially alternating writers")
	}
	var node *Node
	for n := fac.Head(); n != nil; n = n.Rest() {
		if int64(n.Len) == anchor {
			node = n
			break
		}
	}
	if node == nil {
		t.Fatalf("anchor node (index %d) not reachable from the head", anchor)
	}
	if node.Rest() != nil {
		t.Errorf("anchor node at %d still has a tail; swing did not sever", anchor)
	}
	if node.Entry.snapshot() == nil {
		t.Errorf("anchor node at %d carries no snapshot; observed registers must hold only snapshot indices", anchor)
	}
	if m := u.Min(); anchor > m {
		t.Errorf("anchor %d above the live minimum %d", anchor, m)
	}
}

// TestReadCacheNotPinnedByGC is the satellite regression test: the
// single-slot read cache holds the head it replayed, and before the epoch
// fix a swing could retire that head while the cache kept the dead tail
// reachable forever (no reader need ever come back to refresh it). The
// swing must clear the stale snap itself.
func TestReadCacheNotPinnedByGC(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 4, WithLogGC(1))
	u.Invoke(0, inc)
	stall(u, 2, inc) // an in-flight head: the read below replays and caches
	u.Invoke(0, get) // cache now holds the length-2 head
	if c := u.lastRead.Load(); c == nil || c.head.Len != 2 {
		t.Fatal("read did not populate the cache")
	}
	for i := 0; i < 50; i++ {
		u.Invoke(0, inc)
		u.Invoke(1, inc)
	}
	anchor := u.Anchor()
	if anchor <= 1 {
		t.Fatalf("anchor %d did not pass the cached head", anchor)
	}
	if c := u.lastRead.Load(); c != nil && int64(c.head.Len) < anchor {
		t.Errorf("cache still holds retired head (Len %d < anchor %d), pinning the dead tail",
			c.head.Len, anchor)
	}
	// A fresh read from a new in-flight head works off the truncated log
	// and re-populates at the current epoch.
	stall(u, 3, inc)
	if got := u.Invoke(1, get); got != 103 {
		t.Errorf("read after retirement = %d, want 103", got)
	}
	if c := u.lastRead.Load(); c == nil || c.epoch != u.gc.epoch.Load() {
		t.Error("fresh read did not cache at the current GC epoch")
	}
}

// TestReadCacheEpochMiss pins the second half of the cache contract: even
// when a swing loses the eager-clear race (a reader re-stored a pre-swing
// snap after the clear), the epoch stamp keeps the stale snap from ever
// being served. Simulated directly: bump the epoch under the cache and the
// very same head must miss.
func TestReadCacheEpochMiss(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 3, WithLogGC(1))
	u.Invoke(0, inc)
	stall(u, 2, inc) // an in-flight head, so reads go through the cache
	u.Invoke(0, get)
	misses := u.stats.fastMisses.Load()
	u.Invoke(0, get) // same head, same epoch: hit
	if got := u.stats.fastMisses.Load(); got != misses {
		t.Fatalf("unchanged head+epoch should hit the cache (misses %d -> %d)", misses, got)
	}
	u.gc.epoch.Add(1)
	u.Invoke(0, get) // same head, new epoch: must miss and rebuild
	if got := u.stats.fastMisses.Load(); got != misses+1 {
		t.Errorf("epoch bump not honored: misses %d -> %d, want +1", misses, got)
	}
	if c := u.lastRead.Load(); c == nil || c.epoch != u.gc.epoch.Load() {
		t.Error("rebuild did not stamp the new epoch")
	}
}

// TestLogGCSpacePin is the steady-state space pin: a million concurrent
// writes with GC on must leave a live region bounded by O(n + n·gcEvery),
// not by the op count. (The heap-level version of this claim is
// BenchmarkSteadyStateHeap at the repo root; this is the node-count pin.)
func TestLogGCSpacePin(t *testing.T) {
	t.Run("invoke", testLogGCSpacePinInvoke)
}

func testLogGCSpacePinInvoke(t *testing.T) {
	const n, gcEvery = 4, 8
	perPid := 250_000 // 1M ops total
	if testing.Short() {
		perPid = 25_000
	}
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, n, WithLogGC(gcEvery))
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPid; i++ {
				u.Invoke(p, inc)
			}
		}()
	}
	wg.Wait()
	// Quiesce: a short sequential coda refreshes every register (the last
	// concurrent ops may have stopped short of a gcEvery boundary), then one
	// explicit advance applies the final mark.
	for p := 0; p < n; p++ {
		for i := 0; i < 2*gcEvery; i++ {
			u.Invoke(p, inc)
		}
	}
	u.gcAdvance()

	total := n*perPid + n*2*gcEvery
	if got := fac.Head().Len; got != total {
		t.Fatalf("head.Len = %d, want %d", got, total)
	}
	// The live list: everything above the anchor. The bound is the protocol's
	// O(n + n·gcEvery) with slack for the quiesce coda's own tail.
	bound := 4*n + 2*n*gcEvery + 4*gcEvery
	if got := listLen(fac.Head()); got > bound {
		t.Errorf("live list %d nodes after %d ops, want <= %d (O(n + n·gcEvery))",
			got, total, bound)
	}
	if retired := u.Retired(); retired < int64(total-bound) {
		t.Errorf("retired %d of %d entries, want >= %d", retired, total, total-bound)
	}
	if length, _ := LiveRegion(fac.Head(), n); length > bound {
		t.Errorf("live region %d, want <= %d", length, bound)
	}
	if got := u.Invoke(0, get); got != int64(total) {
		t.Errorf("counter reads %d, want %d", got, total)
	}
}

// TestDetachUnpinsMark is the departed-client regression test: a pid that
// stops invoking freezes its observed-prefix register, and before Detach
// existed that frozen register pinned the low-water mark forever — the
// leak that turns real the moment pids are leased to network connections.
// Detach must swing the register out of the min-scan so the mark advances
// past it, and the pid's next Invoke must re-arm it safely (adopting the
// gate, never walking below a sever that happened while it was away).
func TestDetachUnpinsMark(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, 2, WithLogGC(1))
	for i := 0; i < 10; i++ {
		u.Invoke(1, inc) // the departing client's short session
	}
	for i := 0; i < 100; i++ {
		u.Invoke(0, inc)
	}
	pinned := u.Anchor()
	if pinned == 0 || pinned > 11 {
		t.Fatalf("anchor = %d, want pinned at the departed pid's register (1..11)", pinned)
	}
	// Frozen: however much pid 0 writes, the mark cannot pass pid 1's
	// register while pid 1 is still attached.
	for i := 0; i < 100; i++ {
		u.Invoke(0, inc)
	}
	if a := u.Anchor(); a != pinned {
		t.Fatalf("anchor moved %d -> %d while the idle pid was still attached", pinned, a)
	}
	u.Detach(1)
	for i := 0; i < 100; i++ {
		u.Invoke(0, inc)
	}
	if a := u.Anchor(); a <= pinned {
		t.Errorf("anchor = %d after Detach(1) and 100 writes, still pinned at %d", a, pinned)
	}
	if m := u.Min(); m <= pinned {
		t.Errorf("Min() = %d still includes the detached register (pinned %d)", m, pinned)
	}
	// Re-attach: the pid's next invoke (a read suffices) re-arms the
	// register at or above the gate and serves correct state off the
	// truncated log.
	if got := u.Invoke(1, get); got != 310 {
		t.Errorf("re-attached read = %d, want 310", got)
	}
	slot := &u.gc.observed[1]
	if !slot.att.Load() {
		t.Error("Invoke did not re-attach the register")
	}
	if v, g := slot.v.Load(), u.gc.gate.Load(); v < g {
		t.Errorf("re-attached register %d below the gate %d; a future walk could race a sever", v, g)
	}
}

// TestLogGCSpacePinUnderChurn is the connection-churn space pin — the
// lease-pool scenario: sessions acquire a pid, write a little, and depart
// via Detach, exactly what a TCP front end does per connection. Half the
// workers leave for good after one session; the survivors keep going for
// the bulk of the ops. With Detach the retained log stays bounded by the
// live session count (same O(n + n·gcEvery) shape as TestLogGCSpacePin);
// pre-fix, the departed pids' frozen registers anchor the log at their
// first-session indices and the live list grows without bound — linearly
// in the op count.
func TestLogGCSpacePinUnderChurn(t *testing.T) {
	const n, gcEvery, opsPerSession = 8, 8, 64
	sessions := 500 // per surviving worker; 4·500·64 + 4·64 ≈ 128k ops total
	if testing.Short() {
		sessions = 50
	}
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.Counter{}, fac, n, WithLogGC(gcEvery))
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() { // concurrent advancer, as aggressive as the soak's
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				u.gcAdvance()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		p := p
		rounds := sessions
		if p >= n/2 {
			rounds = 1 // departed clients: one session, then gone forever
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				for i := 0; i < opsPerSession; i++ {
					u.Invoke(p, inc) // first op of the session re-attaches
				}
				u.Detach(p)
			}
		}()
	}
	wg.Wait()
	close(stop)
	adv.Wait()
	// Quiesce with one short surviving session and a final advance.
	for i := 0; i < 2*gcEvery; i++ {
		u.Invoke(0, inc)
	}
	u.gcAdvance()
	u.Detach(0)

	total := (n/2)*sessions*opsPerSession + (n/2)*opsPerSession + 2*gcEvery
	if got := fac.Head().Len; got != total {
		t.Fatalf("head.Len = %d, want %d", got, total)
	}
	bound := 4*n + 2*n*gcEvery + 4*gcEvery + opsPerSession
	if got := listLen(fac.Head()); got > bound {
		t.Errorf("live list %d nodes after %d ops under churn, want <= %d (departed pids must not pin)",
			got, total, bound)
	}
	if retired := u.Retired(); retired < int64(total-bound) {
		t.Errorf("retired %d of %d entries, want >= %d", retired, total, total-bound)
	}
	if got := u.Invoke(1, get); got != int64(total) {
		t.Errorf("counter reads %d, want %d", got, total)
	}
}

// TestDetachSoakLinearizable hammers the re-attachment protocol under
// -race: every worker detaches between bursts, so each burst's first walk
// is a genuine re-attach racing the dedicated advancer's sever — the
// interleaving the gate-validate/rescan rules exist for. Histories must
// stay linearizable across both fetch-and-cons forms; every op is its own
// Invoke (batched=false: the construction has no batch path).
func TestDetachSoakLinearizable(t *testing.T) {
	const n = 4
	obj := seqspec.KV{}
	for name, mk := range facMakers(n) {
		t.Run(name+"/batched=false", func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				u := NewUniversal(obj, mk(), n, WithLogGC(1))
				var rec linearize.Recorder
				stop := make(chan struct{})
				var adv sync.WaitGroup
				adv.Add(1)
				go func() {
					defer adv.Done()
					for {
						select {
						case <-stop:
							return
						default:
							u.gcAdvance()
							runtime.Gosched()
						}
					}
				}()
				var wg sync.WaitGroup
				for p := 0; p < n; p++ {
					p := p
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(trial*n + p)))
						for burst := 0; burst < 4; burst++ {
							soakRun(u, &rec, p, soakOps(obj, rng, 4))
							u.Detach(p)
							runtime.Gosched()
						}
					}()
				}
				wg.Wait()
				close(stop)
				adv.Wait()
				h := rec.History()
				if res := linearize.Check(obj, h); !res.OK {
					for _, e := range h {
						t.Logf("  %s", e)
					}
					t.Fatalf("trial %d: history not linearizable under detach churn", trial)
				}
			}
		})
	}
}

// TestLogGCSoakLinearizable is the -race soak hammer: concurrent writers and
// readers over both fetch-and-cons constructions, with the mark advanced as
// aggressively as possible — every write attempts it (WithLogGC(1)) and a
// dedicated goroutine hammers gcAdvance continuously. Every recorded
// history must still linearize; under -race this also checks the
// sever/replay and cache-invalidation rendezvous. Every op is its own
// Invoke (batched=false: the construction has no batch path).
func TestLogGCSoakLinearizable(t *testing.T) {
	const n = 4
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Queue{}}
	for name, mk := range facMakers(n) {
		for _, obj := range objects {
			t.Run(name+"/"+obj.Name()+"/batched=false", func(t *testing.T) {
				for trial := 0; trial < 4; trial++ {
					u := NewUniversal(obj, mk(), n, WithLogGC(1))
					var rec linearize.Recorder
					stop := make(chan struct{})
					var adv sync.WaitGroup
					adv.Add(1)
					go func() { // the concurrent mark-advancer
						defer adv.Done()
						for {
							select {
							case <-stop:
								return
							default:
								u.gcAdvance()
								runtime.Gosched()
							}
						}
					}()
					var wg sync.WaitGroup
					for p := 0; p < n; p++ {
						p := p
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(trial*n + p)))
							soakRun(u, &rec, p, soakOps(obj, rng, 8))
						}()
					}
					wg.Wait()
					close(stop)
					adv.Wait()
					h := rec.History()
					if res := linearize.Check(obj, h); !res.OK {
						for _, e := range h {
							t.Logf("  %s", e)
						}
						t.Fatalf("trial %d: history not linearizable under log GC", trial)
					}
				}
			})
		}
	}
}

// soakOps draws count write-leaning operations on obj from rng.
func soakOps(obj seqspec.Object, rng *rand.Rand, count int) []seqspec.Op {
	ops := make([]seqspec.Op, count)
	for i := range ops {
		ops[i] = fastReadMixOp(obj.Name(), rng, false)
	}
	return ops
}

// soakRun invokes ops on behalf of p, one Invoke each, and records each in
// rec.
func soakRun(u *Universal, rec *linearize.Recorder, p int, ops []seqspec.Op) {
	for _, op := range ops {
		ts := rec.Invoke()
		rec.Complete(p, op, u.Invoke(p, op), ts)
	}
}
