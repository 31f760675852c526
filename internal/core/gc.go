package core

import (
	"math"
	"sync/atomic"
)

// Log GC: the wait-free low-water-mark protocol that bounds the decided
// log's live storage, realizing the Section 4.1 reclamation argument ("it
// is safe to discard any state elements whose n immediate predecessors in
// the list are also state elements") as actual memory reclamation. Without
// it the log is anchored at the head forever and grows O(total ops); with
// it live storage is O(n) plus the entries announced since the last mark
// advance, independent of the object's age.
//
// The protocol has three parts, in the shape of the Paxos Done/Min GC
// contract:
//
//  1. Observed-prefix registers. Each front end owns a single-writer
//     register observed[pid] holding the log index (Node.Len) of the newest
//     snapshot its completed replays have started from. The register is
//     monotone, and it is a promise about the future: every later replay by
//     that pid stops at an index >= observed[pid], because the snapshot it
//     stopped at last time is still there (snapshots are set once and never
//     cleared) and replays stop at the first snapshot below their head.
//     Critically the promise also covers the pid's in-flight replay — the
//     register is only advanced between the pid's own operations, so a
//     mid-walk replay is bounded by the value published before it began.
//
//  2. Min-scan. The collective low-water mark is the minimum over the
//     *attached* observed registers: one bounded scan, no consensus, no
//     cons. Below the mark no replay — completed, in-flight, or future —
//     can ever walk.
//
//  3. Anchor swing. A CAS on the gate index elects at most one process to
//     apply a new mark; the winner rescans the attached registers to
//     bound its cut (see the re-attachment rules below), CASes the cut
//     index, then walks from the head to the node at the cut (the anchor
//     node) and severs its rest pointer, making the dead tail unreachable
//     so Go's collector reclaims it. The anchor node always carries a
//     snapshot: every value a register ever holds is some completed
//     replay's stopping snapshot index (gcObserve stores them, gcAttach
//     adopts one), and the min over them is one of them — so a replay
//     whose walk reaches the anchor node stops there (snapshot found) and
//     never dereferences the severed pointer.
//
// The mark's floor is an idle *attached* process: a pid that stops midway
// pins the log at its last published index (exactly as a Paxos peer that
// never calls Done pins the log). That cost was acceptable under the
// paper's fixed-n model, where every registered process is a live thread;
// it becomes a leak the moment pids are leased to network connections that
// come and go — a departed client's frozen register pins the mark forever.
// The attach/detach protocol sheds it: each register carries an attached
// flag, only attached slots enter the min-scan, slots start detached, a
// pid's first Invoke attaches it, and Detach (called by the pid's thread
// of control between its own operations, e.g. on connection close) swings
// it back out. Replays also gossip their stopping index through the
// best-effort floor register, which an attaching pid adopts.
//
// Re-attachment is where severing gets dangerous: a pid that detached at
// register r and comes back must not replay below a mark that advanced
// past r while it was gone (its first walk could race a concurrent sever
// and read the severed nil rest before the mark snapshot's store is
// visible to it, silently treating the cut as the log's origin). Two
// rules close every interleaving, with the gate register as the pivot of
// an SC happens-before argument:
//
//   - Attach validates: set attached, then load the gate and raise the own
//     register to it. A gate value g is safe to promise — the chain
//     snapshot-store ≺ register-store ≺ scan-load ≺ gate-CAS ≺ this load
//     makes the snapshot at g visible to all of the pid's future walks.
//   - Advance rescans: after winning the gate CAS on a new mark m, scan
//     the attached registers again and sever at cut = min(m, rescan).
//     Any pid whose attach store precedes the rescan's flag load bounds
//     the cut directly; any pid the rescan misses stored its flag after
//     the rescan's load, so its gate validation load is SC-after the gate
//     CAS and adopts g >= m >= cut before its first walk.
//
// Correctness of severing hinges on who can be below the cut when it is
// applied:
//
//   - Replays: bounded by their owner's observed register (>= cut), with
//     re-attachers covered by the validate/rescan rules above.
//   - ConsFAC merge walks: a goal entry retired below the mark may be
//     missing from a truncated walk, but the mark can only pass an entry
//     after its owner published a decided list headed by an at-least-as-new
//     entry (every register advance — including the attach validation,
//     which happens before the pid conses anything new — is in the owner's
//     program order after its latest publish, and a detached owner
//     published its decided head before detaching), so merge's decided-
//     register fallback resolves the entry as present instead of
//     re-consing it (see mergeWith). The happens-before chain runs publish
//     → register store → min-scan load → gate CAS → sever store → the
//     walker's nil Rest load, so a walk cut short by a sever always sees
//     the decided head that covers the cut.
//   - trim: the caller's own entry is above its own register, which was
//     last advanced before the entry was consed and is frozen for the call.
//   - The read cache: a cached head below the mark is dropped by the epoch
//     bump and the explicit invalidation in gcSwing.

// gcState is the Universal's low-water-mark machinery; zero value = GC off.
type gcState struct {
	// observed[p] is p's single-writer observed-prefix register: the log
	// index of the newest snapshot p's replays are promised to stop at or
	// above. Slots are cache-line padded like wfstats.StripedCounter: the
	// store is on the write path of every operation.
	//
	//wf:len n
	//wf:singlewriter pid
	observed []obsSlot

	// floor is the best-effort gossip register: the highest snapshot index
	// any completed replay is known to have stopped at. Raised with a single
	// CAS attempt (losing just means someone raised it concurrently), read
	// by gcAttach to advance without replaying. It never enters the
	// min-scan directly — observed[] alone guards in-flight walks.
	//
	//wf:monotone
	floor atomic.Int64

	// gate is the elected low-water mark: the newest mark any advance has
	// won the election for. It is the pivot of the attach protocol — an
	// attaching pid adopts it before its first walk, which is what lets the
	// advancer's rescan skip pids it cannot see (see the file comment).
	// CAS-advanced; always a genuine snapshot index.
	//
	//wf:monotone
	gate atomic.Int64

	// cut is the applied low-water mark: the log index of the anchor node,
	// below which everything is severed. Entries strictly below it (cut-1
	// of them) are retired. cut <= gate always; the two differ only when an
	// attach raced the winning advance and the rescan bounded the sever
	// short of the elected mark. CAS-advanced; 0 = nothing retired.
	//
	//wf:monotone
	cut atomic.Int64

	// epoch counts anchor swings. The read cache stores the epoch it was
	// built under and misses on a stale one, so a retired tail is never
	// pinned past the swing that retired it.
	//
	//wf:monotone
	epoch atomic.Int64
}

// obsSlot is one observed-prefix register, padded to a cache line so the
// per-operation store never bounces a neighbor's line. The register holds
// only genuine snapshot indices — a replay's own stopping point (gcObserve),
// an adopted gossip floor or gate, each itself some replay's stopping point
// (gcAttach) — which is what makes the anchor node a snapshot node. att is the attach flag: only attached slots enter the min-scan, so
// a detached pid (never arrived, or departed via Detach) doesn't pin the
// mark. Both fields are owned by pid's thread of control; the advancer only
// loads them.
type obsSlot struct {
	//wf:monotone
	v   atomic.Int64
	att atomic.Bool
	_   [55]byte
}

// DefaultGCEvery is the facade's default mark-advance period (WithLogGC):
// each front end attempts an advance every 64th write, amortizing the
// min-scan and truncation walk over the writes between. Between advances at
// most n·DefaultGCEvery retirable entries float, a constant-factor add to
// the live region.
const DefaultGCEvery = 64

// WithLogGC enables low-water-mark log truncation: every front end
// publishes the snapshot index its replays stop at, and every every-th
// write per process attempts to advance the collective mark and sever the
// log below it. Requires truncation (snapshots are the retention anchors);
// a Universal built WithoutTruncation ignores it. every must be >= 1.
//
// The trade is the usual low-water-mark one: live memory drops from
// O(total ops) to O(n + n·every), at the cost of one padded store per
// write and an O(n) min-scan plus bounded truncation walk every every-th
// write. An attached process that stops invoking pins the mark
// at its last published index, exactly as an idle Paxos peer pins Min();
// registers start detached and Detach re-detaches a departing pid, so
// only pids actively between Invoke and Detach can pin.
func WithLogGC(every int) Option {
	if every < 1 {
		panic("core: log GC interval must be >= 1")
	}
	return func(u *Universal) { u.gcEvery = int64(every) }
}

// WithoutLogGC disables low-water-mark log truncation (the default for
// NewUniversal; front ends that enable it by default, like the sharded KV
// facade, use this to switch it back off).
func WithoutLogGC() Option {
	return func(u *Universal) { u.gcEvery = 0 }
}

// gcOn reports whether the low-water-mark protocol is active: it needs
// snapshots to anchor retention, so truncation must be on too.
func (u *Universal) gcOn() bool { return u.gcEvery > 0 && u.truncate }

// gcObserve publishes pid's newest replay stopping point: stop is the log
// index of the snapshot node the replay started from (0 if it walked to
// the log's origin). Single writer — pid's own front end, between that
// pid's walks — so a plain load/store pair suffices, and the monotone max
// keeps the register a promise about all future replays.
func (u *Universal) gcObserve(pid int, stop int64) {
	if !u.gcOn() || stop == 0 {
		return
	}
	// Gossip the stop: one CAS attempt to raise the shared floor; a lost
	// race means another replay raised it concurrently, just as good.
	if f := u.gc.floor.Load(); stop > f {
		u.gc.floor.CompareAndSwap(f, stop)
	}
	slot := &u.gc.observed[pid]
	if stop > slot.v.Load() {
		slot.v.Store(stop)
	}
}

// gcSettle ends pid's write operation e: publish stop, the snapshot index
// its replay stopped at, and advance the mark on schedule (every gcEvery-th
// seq).
func (u *Universal) gcSettle(pid int, e *Entry, stop int64) {
	u.gcObserve(pid, stop)
	if u.gcEvery > 0 && e.Seq%u.gcEvery == 0 {
		u.gcAdvance()
	}
}

// gcAttach arms pid's observed-prefix register for the min-scan. Called at
// the top of every Invoke; the common case is one load of the pid's own
// padded flag. On a genuine (re-)attach it validates the register against
// the gate — an advance elected before our flag store may sever up to the
// gate without its rescan seeing us, so every walk we do from here on must
// stop at or above it. The order is load-bearing: the flag store must
// precede the gate load (that is the SC pivot the rescan rule relies on).
// Single writer: pid's own thread of control, between its operations.
func (u *Universal) gcAttach(pid int) {
	if !u.gcOn() {
		return
	}
	slot := &u.gc.observed[pid]
	if slot.att.Load() {
		return
	}
	slot.att.Store(true)
	if g := u.gc.gate.Load(); g > slot.v.Load() {
		slot.v.Store(g)
	}
	// Opportunistic: the floor is usually ahead of the gate. Sound because
	// a floor value is some completed replay's stopping snapshot, visible
	// to every future walk from every future head.
	if f := u.gc.floor.Load(); f > slot.v.Load() {
		slot.v.Store(f)
	}
}

// Detach swings pid's observed-prefix register out of the GC min-scan, so
// a process that is done operating — a departed client whose pid returns
// to a lease pool, a drained worker — stops pinning the low-water mark.
// Without it a leased pid's frozen register would anchor the log at its
// last replay forever, the fixed-arrival leak the infinite-arrival model
// calls out. The pid re-arms automatically on its next Invoke (gcAttach),
// adopting the current gate so it can never walk below a sever that
// happened while it was away.
//
// Contract: like Invoke, Detach must be called from pid's thread of
// control with no operation by that pid in flight — it is the same
// single-writer discipline the observed register already requires. It is
// a no-op when log GC is off. It does not itself advance the mark; the
// next scheduled advance by any attached pid collects the slack.
func (u *Universal) Detach(pid int) {
	if !u.gcOn() {
		return
	}
	u.gc.observed[pid].att.Store(false)
}

// gcAdvance computes the collective low-water mark over the attached
// registers and, if it moved, elects itself on the gate CAS, rescans to
// bound the sever against racing attaches, and swings: two bounded scans,
// two CASes, one bounded walk to the new anchor node. Safe to call from
// any front end — or any non-pid thread — at any point outside the
// caller's own replay. Losing either CAS means a concurrent advance got
// there first — possibly with an *older* mark (its scan ran earlier), in
// which case the difference stays live until the next scheduled advance
// re-scans; retirement is delayed by at most one gcEvery period per
// process, never lost, and both registers stay monotone (a CAS succeeds
// only against the exact old value it bettered).
func (u *Universal) gcAdvance() {
	if !u.gcOn() {
		return
	}
	// Min-scan over the attached registers: each of the n slots is read
	// once; a range loop is machine-bounded by its operand, so no directive
	// needed. With nobody attached the mark falls back to the gossip floor:
	// there is no walk to endanger, and any later attacher validates
	// against the gate before its first one.
	mark := int64(math.MaxInt64)
	attached := false
	for p := range u.gc.observed {
		s := &u.gc.observed[p]
		if !s.att.Load() {
			continue
		}
		attached = true
		if v := s.v.Load(); v < mark {
			mark = v
		}
	}
	if !attached {
		mark = u.gc.floor.Load()
	}
	old := u.gc.gate.Load()
	if mark <= old {
		return // nothing newly retirable (covers the never-replayed 0 floor)
	}
	if !u.gc.gate.CompareAndSwap(old, mark) {
		return // a concurrent advance elected first; see the doc comment
	}
	// Election won: rescan the attached registers to bound the sever. A pid
	// that attached since the first scan with a register below mark is seen
	// here and bounds the cut; one that attaches after this scan's flag
	// load will load the gate after our CAS and adopt >= mark (see the file
	// comment's rescan rule). Values the first scan already saw can only
	// have risen, so the common quiescent case leaves cut == mark.
	cut := mark
	for p := range u.gc.observed {
		s := &u.gc.observed[p]
		if !s.att.Load() {
			continue
		}
		if v := s.v.Load(); v < cut {
			cut = v
		}
	}
	prev := u.gc.cut.Load()
	if cut <= prev {
		return // a racing attach pinned us at/below an already-applied cut
	}
	if !u.gc.cut.CompareAndSwap(prev, cut) {
		return // a concurrent winner severed first
	}
	u.gcSwing(prev, cut)
}

// gcSwing applies a won cut: walk from the head to the anchor node (log
// index mark) and sever its tail. The walk is cut short harmlessly if a
// later swing already severed above mark — everything below is then
// already unreachable.
func (u *Universal) gcSwing(old, mark int64) {
	head := u.fac.Observe()
	scanned := int64(0)
	//wf:bounded [n + n*g] walks head down to the anchor node: at most the live region, O(n) plus the entries announced since the last advance (the mark is below every in-flight walk, so the anchor node is reachable unless a newer swing already cut above it)
	for n := head; ; n = n.Rest() {
		if n == nil {
			break // empty log, or a newer swing already severed above mark
		}
		scanned++
		if int64(n.Len) == mark {
			n.sever()
			break
		}
		if int64(n.Len) < mark {
			break // a newer swing already severed above; nothing to do
		}
	}
	retired := mark - old
	if old == 0 {
		retired = mark - 1 // entries strictly below the first anchor
	}
	u.gc.epoch.Add(1)
	// Drop a read-cache entry whose head was retired by this swing, so the
	// cache cannot pin the dead tail while readers are idle; the epoch check
	// in readFast handles the racing-reader window.
	// A cached nil head (empty-log read) is trivially below any mark.
	if c := u.lastRead.Load(); c != nil && (c.head == nil || int64(c.head.Len) < mark) {
		u.lastRead.CompareAndSwap(c, nil)
	}
	u.stats.retired.Add(retired)
	u.stats.gcScanLen.Observe(scanned)
	if head != nil {
		u.stats.logLen.Set(int64(head.Len) - (mark - 1))
	}
}

// Min computes the collective low-water mark right now: the minimum over
// the attached observed-prefix registers, the Paxos Min() of this log.
// Zero when GC is off or some attached process has never completed a
// replay; with nobody attached it reports the elected gate (the mark
// cannot move until someone attaches and operates).
func (u *Universal) Min() int64 {
	if !u.gcOn() {
		return 0
	}
	mark := int64(math.MaxInt64)
	attached := false
	for p := range u.gc.observed { // bounded min-scan, mirrors gcAdvance
		s := &u.gc.observed[p]
		if !s.att.Load() {
			continue
		}
		attached = true
		if v := s.v.Load(); v < mark {
			mark = v
		}
	}
	if !attached {
		return u.gc.gate.Load()
	}
	return mark
}

// Anchor returns the applied low-water mark: the log index of the current
// anchor node. Entries strictly below it have been severed from the list.
// Zero means nothing has been retired.
func (u *Universal) Anchor() int64 { return u.gc.cut.Load() }

// Retired reports how many log entries the GC has severed so far. Derived
// from the cut index, so it works in the WithMetrics(nil) no-op mode.
func (u *Universal) Retired() int64 {
	if a := u.gc.cut.Load(); a > 0 {
		return a - 1
	}
	return 0
}
