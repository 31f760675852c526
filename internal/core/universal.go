package core

import (
	"sync/atomic"

	"waitfree/internal/seqspec"
	"waitfree/internal/wfstats"
)

// Universal is the paper's universal object (Figures 4-1/4-2): a wait-free
// linearizable concurrent version of any deterministic sequential object,
// built over any fetch-and-cons.
//
// An operation executes in two steps. First the front end threads a log
// entry onto the shared list with fetch-and-cons — this is when the
// operation "really happens", fixing its linearization point. Second it
// replays the entries that precede its own to reconstruct the object state
// and compute the response.
//
// With truncation enabled (the strongly-wait-free refinement of Section
// 4.1), each front end stores the state its own operation produced into its
// own entry; replays stop at the first entry carrying a state and apply
// nothing for it. Every completed operation carries a snapshot, so a replay
// traverses at most one un-snapshotted entry per concurrent process — the
// per-operation work is bounded by n rather than by the object's age, and
// everything below the last snapshot is garbage (reclaimed by GC; the
// paper's manual reclamation argument bounds live storage at O(n^2)).
type Universal struct {
	seq      seqspec.Object
	fac      FetchAndCons
	truncate bool
	fastRead bool
	// gcEvery is the mark-advance period per process; 0 = log GC off.
	//
	//wf:param g
	gcEvery int64

	// seqs holds each pid's operation sequence number; slot pid is written
	// only by pid's own front end (the sequential-use contract).
	//
	//wf:len n
	//wf:singlewriter pid
	seqs []atomic.Int64

	// gc is the low-water-mark log truncation machinery (see gc.go):
	// per-pid observed-prefix registers, the gossip floor, and the applied
	// anchor. Zero value when gcEvery is 0.
	gc gcState

	// scratch holds per-pid replay buffers. Each pid invokes sequentially
	// (the front-end contract), so slot pid has a single writer and replays
	// reuse one pending buffer instead of growing a fresh slice per call.
	//
	//wf:len n
	//wf:singlewriter pid
	scratch []replayScratch

	// lastRead caches the state reconstructed by the most recent fast read,
	// keyed by the observed list head. Consecutive reads with no intervening
	// write hit the cache and touch no shared mutable memory at all: the
	// cached state is frozen (only ReadOnly ops are ever applied to it), so
	// serving from it is a load plus a pure Apply. The ReadOnly contract
	// this depends on is enforced by the cross-spec contract tests in
	// internal/seqspec and the shared-cache race hammer in this package.
	lastRead atomic.Pointer[readSnap]

	// metrics is the registry the construction records into: a private one
	// by default (so ReplayStats and FastReads always work), the caller's
	// via WithMetrics, or nil for the no-op mode (metricsSet distinguishes
	// an explicit nil from "not configured").
	metrics    *wfstats.Registry
	metricsSet bool
	stats      universalStats
}

// universalStats is the construction's metric set. Every field is nil-safe,
// so the no-op mode (WithMetrics(nil)) costs one predicated load per record.
type universalStats struct {
	// consOps counts write-path operations: each consumes exactly one
	// fetch-and-cons (the operation's linearization step).
	consOps *wfstats.Counter
	// snapStores counts Section 4.1 snapshot stores.
	snapStores *wfstats.Counter
	// fastHits and fastMisses split the read fast path by whether the
	// frozen-state cache served the read (hit: no replay at all). The fast
	// path is the hottest in the tree and is shared by every reader, so
	// these are striped by pid: one single-writer cache line each, no
	// bouncing (see wfstats.StripedCounter).
	fastHits   *wfstats.StripedCounter
	fastMisses *wfstats.StripedCounter
	// replayLen is the replay-length histogram: entries traversed per
	// replay, the Section 4.1 strong-wait-freedom quantity (bounded by n
	// with snapshots, by the object's age without).
	replayLen *wfstats.Histogram
	// retired counts log entries severed by the low-water-mark GC, and
	// logLen gauges the live log length (head index minus retired) as of
	// the latest anchor swing or sample. Flat zeros with GC off.
	retired *wfstats.Counter
	logLen  *wfstats.Gauge
	// gcScanLen is the truncation-scan histogram: nodes walked per anchor
	// swing, bounded by the live region when the GC keeps up.
	gcScanLen *wfstats.Histogram
	// opSteps is the runtime cross-check of wfvet's symbolic certificates:
	// per replay, the log nodes walked plus the entries applied plus the
	// constant per-operation overhead (cons or observe, own apply, snapshot
	// bookkeeping) — the concrete instantiation of the O(n) replay terms in
	// the certified Invoke bound. A test evaluates the certificate at the
	// experiment's n and asserts this histogram's max stays under it.
	opSteps *wfstats.Histogram
}

// replayScratch is one pid's reusable replay buffer (single writer: the
// pid's own front end): replayPublish's window buffers, which it clears
// before returning, so scratch never pins decided log nodes, snapshot
// states or op arguments beyond the call.
type replayScratch struct {
	pending []*Entry
	ops     []seqspec.Op
	out     []int64
}

// readSnap pairs an observed decided list with the state it replays to,
// stamped with the GC epoch it was built under: an anchor swing bumps the
// epoch, so a snap cached before a retirement can never be served — or pin
// the dead tail — after it (see gcSwing, which also clears a stale snap
// eagerly).
type readSnap struct {
	head  *Node
	state seqspec.State
	epoch int64
}

// Option configures a Universal.
type Option func(*Universal)

// WithoutTruncation disables the strongly-wait-free snapshot refinement,
// yielding the plain wait-free construction whose i-th operation replays i
// entries.
func WithoutTruncation() Option {
	return func(u *Universal) { u.truncate = false }
}

// WithoutFastReads routes read-only operations through the full write path
// (cons + replay + snapshot), as the construction did before the read fast
// path existed; useful for measuring the fast path and for differential
// testing against it.
func WithoutFastReads() Option {
	return func(u *Universal) { u.fastRead = false }
}

// WithMetrics records the construction's metrics (universal.* — cons ops,
// snapshot stores, fast-read hits/misses, the replay-length histogram) into
// reg instead of a private registry. Several instances sharing one registry
// share the metrics and report their aggregate — this is how a sharded
// front end sums its shards. Passing nil selects the no-op mode: recording
// costs one predicated load per metric and ReplayStats/FastReads read as
// zero.
func WithMetrics(reg *wfstats.Registry) Option {
	return func(u *Universal) { u.metrics, u.metricsSet = reg, true }
}

// NewUniversal builds a wait-free version of seq for n processes over fac.
// Truncation is enabled by default.
func NewUniversal(seq seqspec.Object, fac FetchAndCons, n int, opts ...Option) *Universal {
	u := &Universal{seq: seq, fac: fac, truncate: true, fastRead: true,
		seqs: make([]atomic.Int64, n), scratch: make([]replayScratch, n)}
	for _, o := range opts {
		o(u)
	}
	if u.gcOn() {
		u.gc.observed = make([]obsSlot, n)
	}
	if !u.metricsSet {
		u.metrics = wfstats.NewRegistry()
	}
	u.stats = universalStats{
		consOps:    u.metrics.Counter("universal.cons_ops"),
		snapStores: u.metrics.Counter("universal.snapshot_stores"),
		fastHits:   u.metrics.StripedCounter("universal.fast_read_hit", n),
		fastMisses: u.metrics.StripedCounter("universal.fast_read_miss", n),
		replayLen:  u.metrics.Histogram("universal.replay_len"),
		retired:    u.metrics.Counter("universal.retired"),
		logLen:     u.metrics.Gauge("universal.log_len"),
		gcScanLen:  u.metrics.Histogram("universal.gc_scan_len"),
		opSteps:    u.metrics.Histogram("universal.op_steps"),
	}
	return u
}

// Metrics returns the registry the construction records into: the private
// default, or whatever WithMetrics supplied (possibly nil).
func (u *Universal) Metrics() *wfstats.Registry { return u.metrics }

// Invoke executes op on behalf of process pid and returns its response.
// Each pid must invoke sequentially (a front end is a single thread of
// control); distinct pids may invoke concurrently.
//
// Read-only operations (per seq.ReadOnly) are served on a fast path: load a
// decided list from the fetch-and-cons, replay it to a state, apply the
// operation — no cons, no snapshot, no consensus round. The linearization
// point is the Observe load: the observed list contains every operation
// that completed before the read was invoked and only entries whose order
// is decided, so the read takes effect atomically at the load.
func (u *Universal) Invoke(pid int, op seqspec.Op) int64 {
	u.gcAttach(pid) // (re-)arm pid's GC register before any walk; see Detach
	if u.fastRead && u.seq.ReadOnly(op) {
		return u.readFast(pid, op)
	}
	e := newEntry(pid, u.seqs[pid].Add(1), op)
	u.stats.consOps.Inc()
	resp, stop := u.execute(pid, e, u.fac.FetchAndCons(pid, e))
	u.gcSettle(pid, e, stop)
	return resp
}

// execute is the second step of every write path (Figure 4-2's replay,
// then Section 4.1's snapshot): replay prior — the decided list below e —
// and e's own operation in one edit window, and store the resulting state
// as e's snapshot. It returns e's response and the log index its replay
// stopped at, which the caller hands to gcSettle.
func (u *Universal) execute(pid int, e *Entry, prior *Node) (int64, int64) {
	state, resp, stop := u.replayPublish(pid, prior, e)
	if u.truncate {
		u.storeSnapshot(e, state)
	}
	return resp, stop
}

// storeSnapshot stores state, the state after e's own operation, as e's
// Section 4.1 snapshot. state is execute's private replay result, which it
// never touches again: replayers only Clone a stored state, so it is stored
// as is. A replay that stops at it has nothing left to apply.
func (u *Universal) storeSnapshot(e *Entry, state seqspec.State) {
	u.stats.snapStores.Inc()
	e.snapState = state
	e.snapped.Store(true)
}

// readFast serves a read-only operation from a decided list. A settled
// head — its entry already carries its snapshot, the state after every
// entry of the observed list — answers directly from that frozen state:
// no replay, no clone, no cache entry. A head still in flight goes through
// the read cache, keyed by the observed head plus the GC epoch: an anchor
// swing invalidates every older snap, so the cache re-replays once per
// retirement (stopping at the fresh anchor) instead of holding a
// pre-retirement head alive.
func (u *Universal) readFast(pid int, op seqspec.Op) int64 {
	head := u.fac.Observe()
	if head != nil {
		if s := head.Entry.snapshot(); s != nil {
			u.stats.fastHits.Inc(pid)
			// head.Len is a snapshot index, like a replay's stopping point:
			// every later replay from a newer head stops at or above it.
			u.gcObserve(pid, int64(head.Len))
			return s.Apply(op) // frozen state; ReadOnly Apply never mutates (contract-tested in seqspec)
		}
	}
	epoch := u.gc.epoch.Load()
	if c := u.lastRead.Load(); c != nil && c.head == head && c.epoch == epoch {
		u.stats.fastHits.Inc(pid)
		return c.state.Apply(op) // frozen state, as above
	}
	u.stats.fastMisses.Inc(pid)
	state := u.replay(pid, head)
	u.lastRead.Store(&readSnap{head: head, state: state, epoch: epoch})
	return state.Apply(op)
}

// State returns the object's state after every operation in the decided
// list Observe loads, as a private copy the caller may mutate or keep.
// Like a fast read it conses nothing and linearizes at that load, but it
// neither reads nor fills the read cache. pid is bound by Invoke's
// sequential-use contract.
func (u *Universal) State(pid int) seqspec.State {
	u.gcAttach(pid)
	return u.replay(pid, u.fac.Observe())
}

// replay reconstructs the object state after all entries of list (newest
// first), stopping early at snapshots when present. The result is private:
// a clone of the snapshot the walk stopped at, or a fresh Init.
func (u *Universal) replay(pid int, list *Node) seqspec.State {
	state, _, stop := u.replayPublish(pid, list, nil)
	u.gcObserve(pid, stop)
	return state
}

// replayPublish is replay plus the caller's own operation, whose response
// execute returns. It gathers the ops of the entries above the snapshot
// it stops at, oldest first, followed by own's op when own is non-nil, and
// applies them in one seqspec.ApplyAll: one edit window, so a KV replay
// copies each trie node the window's puts share once, not once per put. It
// returns the state, own's response and the log index of the snapshot it
// stopped at (0 at the log's origin), which it leaves to the caller to
// publish to pid's GC register (gcObserve). The entry it stops at needs
// nothing applied: its snapshot is the state after its op.
func (u *Universal) replayPublish(pid int, list *Node, own *Entry) (seqspec.State, int64, int64) {
	sc := &u.scratch[pid]
	pending := sc.pending[:0]
	var state seqspec.State
	stop := int64(0) // log index of the snapshot the walk stopped at
	//wf:bounded [n] walks to the first snapshotted entry: past only the live processes' in-flight entries (Section 4.1's strong wait-freedom bound), or the whole finite list without truncation
	for n := list; ; n = n.Rest() {
		if n == nil {
			state = u.seq.Init()
			break
		}
		if s := n.Entry.snapshot(); s != nil {
			// s is the state after n.Entry's op: nothing to apply.
			state = s.Clone()
			stop = int64(n.Len)
			break
		}
		pending = append(pending, n.Entry)
	}
	ops := sc.ops[:0]
	//wf:bounded [n] gathers the ops of the entries the walk above passed, oldest first — same Section 4.1 bound, paid a second time
	for i := len(pending) - 1; i >= 0; i-- {
		ops = append(ops, pending[i].Op)
	}
	if own != nil {
		ops = append(ops, own.Op)
	}
	out := sc.out
	if cap(out) < len(ops) {
		out = make([]int64, cap(ops))
	}
	out = out[:len(ops)]
	seqspec.ApplyAll(state, ops, out)
	var resp int64
	if own != nil {
		resp = out[len(ops)-1]
	}

	clear(pending)
	clear(ops)
	sc.pending, sc.ops, sc.out = pending[:0], ops[:0], out[:0]
	u.stats.replayLen.Observe(int64(len(pending)))
	// Step accounting for the certificate cross-check: the walk visited
	// len(pending) nodes plus its stopping node, the window applied
	// len(pending) entries, and the operation around this replay spends a
	// constant on its cons or observe, its own apply, and publication.
	u.stats.opSteps.Observe(2*int64(len(pending)) + 4)
	return state, resp, stop
}

// Handle returns pid's front end (Figure 4-1): a single thread of control
// that drives the object on that process's behalf. It is a convenience that
// binds the pid once; the sequential-use contract is per handle.
func (u *Universal) Handle(pid int) *Handle {
	if pid < 0 || pid >= len(u.seqs) {
		panic("core: Handle pid out of range")
	}
	return &Handle{u: u, pid: pid}
}

// Handle is a per-process front end of a Universal object.
type Handle struct {
	u   *Universal
	pid int
}

// Invoke executes op on behalf of the handle's process.
func (h *Handle) Invoke(op seqspec.Op) int64 { return h.u.Invoke(h.pid, op) }

// Detach releases the handle's GC pin; see Universal.Detach. Call it when
// the front end is done operating (e.g. before returning a leased pid).
func (h *Handle) Detach() { h.u.Detach(h.pid) }

// Pid returns the process id this handle drives.
func (h *Handle) Pid() int { return h.pid }

// ReplayStats reports (operations, mean replay length, max replay length):
// the Section 4.1 experiment comparing wait-free with strongly wait-free.
// The numbers are read from the universal.replay_len histogram; in the
// WithMetrics(nil) no-op mode they are zero.
func (u *Universal) ReplayStats() (ops int64, mean float64, max int64) {
	h := u.stats.replayLen
	return h.Count(), h.Mean(), h.Max()
}

// FastReads reports how many operations were served by the read-only fast
// path (universal.fast_read_hit + universal.fast_read_miss). Cache-hitting
// reads count here but not in ReplayStats (they replay nothing).
func (u *Universal) FastReads() int64 {
	return u.stats.fastHits.Load() + u.stats.fastMisses.Load()
}
