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
// 4.1), each front end stores the state it reconstructed into its own
// entry; replays stop at the first entry carrying a state. Every completed
// operation carries a snapshot, so a replay traverses at most one
// un-snapshotted entry per concurrent process — the per-operation work is
// bounded by n rather than by the object's age, and everything below the
// last snapshot is garbage (reclaimed by GC; the paper's manual reclamation
// argument bounds live storage at O(n^2)).
type Universal struct {
	seq      seqspec.Object
	fac      FetchAndCons
	truncate bool
	// snapEvery is the snapshot interval k of WithSnapshotInterval.
	//
	//wf:param k
	snapEvery int64
	fastRead  bool
	batch     bool
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

	// contended is the batched path's gather hint: set while batching is
	// observably paying off (the last executor pass helped someone, or this
	// process was itself helped), cleared by a solo pass. While set, a
	// writer that finds itself at the head yields once before executing so
	// already-runnable writers can announce behind it and be settled by one
	// pass (see helping.go).
	contended atomic.Bool

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
	// snapStores counts Section 4.1 snapshot stores (Clone + publish).
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
	// helped counts batched write operations that returned a response
	// published by a concurrent executor — no replay, no clone, no apply.
	helped *wfstats.Counter
	// snapSaved counts snapshot stores the helped path skipped: operations
	// that would have cloned and published a snapshot on the unbatched path
	// but were covered by their batch executor's single store instead.
	snapSaved *wfstats.Counter
	// batchLen is the batch-size histogram: responses each executor pass
	// settled (its own plus every helped entry it published), the paper's
	// one-operation-per-wave quantity from the combining-network discussion.
	batchLen *wfstats.Histogram
	// retired counts log entries severed by the low-water-mark GC, and
	// logLen gauges the live log length (head index minus retired) as of
	// the latest anchor swing or sample. Flat zeros with GC off.
	retired *wfstats.Counter
	logLen  *wfstats.Gauge
	// gcScanLen is the truncation-scan histogram: nodes walked per anchor
	// swing, bounded by the live region when the GC keeps up.
	gcScanLen *wfstats.Histogram
	// liveRegion gauges the Section 4.1 live region (see LiveRegion),
	// sampled at every liveSampleEvery-th snapshot store per process.
	liveRegion *wfstats.Gauge
	// opSteps is the runtime cross-check of wfvet's symbolic certificates:
	// per replay, the log nodes walked plus the entries applied plus the
	// constant per-operation overhead (cons or observe, own apply, snapshot
	// bookkeeping) — the concrete instantiation of the O(n·k) terms in the
	// certified Invoke bound. A test evaluates the certificate at the
	// experiment's n and k and asserts this histogram's max stays under it.
	opSteps *wfstats.Histogram
}

// replayScratch is one pid's reusable replay buffer (single writer: the
// pid's own front end). entries and priors are InvokeBatch's per-wave
// buffers; it clears them before returning, so scratch never pins decided
// log nodes or snapshot states beyond the call.
type replayScratch struct {
	pending []*Entry
	entries []*Entry
	priors  []*Node
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
// yielding the plain wait-free construction whose k-th operation replays k
// entries.
func WithoutTruncation() Option {
	return func(u *Universal) { u.truncate = false }
}

// WithSnapshotInterval makes only every k-th entry per process store a
// cloned snapshot, trading Clone cost against replay length: the
// strongly-wait-free replay bound degrades gracefully from O(n) to O(n·k).
// Clone dominates a write for states that copy their contents (seqspec's
// Set, Queue and Bank); KV's persistent trie clones in O(1), so for KV a
// larger k only lengthens replays. k=1 — every entry, the paper's Section
// 4.1 construction — is the default.
func WithSnapshotInterval(k int) Option {
	if k < 1 {
		panic("core: snapshot interval must be >= 1")
	}
	return func(u *Universal) { u.snapEvery = int64(k) }
}

// WithoutFastReads routes read-only operations through the full write path
// (cons + replay + snapshot), as the construction did before the read fast
// path existed; useful for measuring the fast path and for differential
// testing against it.
func WithoutFastReads() Option {
	return func(u *Universal) { u.fastRead = false }
}

// WithBatching enables helping-based batch execution on the write path (see
// helping.go): a writer whose entry is still the newest announced executes
// at once — replaying once and publishing the response of every
// decided-but-unexecuted entry it applies, with one snapshot for the whole
// pass — while a writer that finds newer entries consed above its own waits
// a bounded window to be settled by a pass from up there. Under contention
// one replay and one clone serve a whole batch of writers — the
// combining-network shape of the paper's Sections 1 and 5 — while an
// uncontended writer pays only one empty result-slot check and one Observe
// load before executing as usual.
func WithBatching() Option {
	return func(u *Universal) { u.batch = true }
}

// WithoutBatching disables helping-based batch execution (the default for
// NewUniversal; front ends that enable batching by default, like the
// sharded KV facade, use this to switch it back off).
func WithoutBatching() Option {
	return func(u *Universal) { u.batch = false }
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
	u := &Universal{seq: seq, fac: fac, truncate: true, snapEvery: 1, fastRead: true,
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
		helped:     u.metrics.Counter("universal.helped"),
		snapSaved:  u.metrics.Counter("universal.snapshot_saved"),
		batchLen:   u.metrics.Histogram("universal.batch_len"),
		retired:    u.metrics.Counter("universal.retired"),
		logLen:     u.metrics.Gauge("universal.log_len"),
		gcScanLen:  u.metrics.Histogram("universal.gc_scan_len"),
		liveRegion: u.metrics.Gauge("universal.live_region"),
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
	e := &Entry{Pid: pid, Seq: u.seqs[pid].Add(1), Op: op}
	u.stats.consOps.Inc()
	if u.batch {
		return u.invokeBatched(pid, e)
	}
	prior := u.fac.FetchAndCons(pid, e)
	pre := u.replay(pid, prior)
	if u.truncate && e.Seq%u.snapEvery == 0 {
		u.stats.snapStores.Inc()
		e.snapshot.Store(&snapBox{state: pre.Clone()})
		u.sampleLiveRegion(e.Seq)
	}
	if u.gcEvery > 0 && e.Seq%u.gcEvery == 0 {
		u.gcAdvance()
	}
	return pre.Apply(op)
}

// liveSampleEvery gates the universal.live_region gauge: snapshot-store
// sites sample LiveRegion on every liveSampleEvery-th store per process, so
// wfstat shows the Section 4.1 region live without putting an O(n·k) walk
// on every write. liveSampleCap bounds each sample's walk: when snapshots
// are sparse (snapEvery > 1 with interleaved writers, or batching) the
// replay rule may never close the region, and a gauge sample must saturate
// (report the cap), not traverse an unbounded log. The budget is sized so
// a saturating sampler costs ~cap/(every·snapEvery) ≈ a few node loads per
// write, amortized; any healthy GC-on live region sits well under the cap.
const (
	liveSampleEvery = 64
	// liveSampleCap is the symbolic walk budget C of a live-region sample.
	//
	//wf:param C
	liveSampleCap = 512
)

// sampleLiveRegion refreshes the live-region gauge from a snapshot-store
// site; seq is the storing entry's per-process sequence number. A reading
// of liveSampleCap means the sample saturated its walk budget.
func (u *Universal) sampleLiveRegion(seq int64) {
	if u.stats.liveRegion == nil || seq%liveSampleEvery != 0 {
		return
	}
	length, _ := liveRegionCapped(u.fac.Observe(), len(u.seqs), liveSampleCap)
	u.stats.liveRegion.Set(int64(length))
}

// readFast serves a read-only operation from a decided list. The cache key
// is the observed head plus the GC epoch: an anchor swing invalidates every
// older snap, so the cache re-replays once per retirement (stopping at the
// fresh anchor) instead of holding a pre-retirement head alive.
func (u *Universal) readFast(pid int, op seqspec.Op) int64 {
	head := u.fac.Observe()
	epoch := u.gc.epoch.Load()
	if c := u.lastRead.Load(); c != nil && c.head == head && c.epoch == epoch {
		u.stats.fastHits.Inc(pid)
		return c.state.Apply(op) // frozen state; ReadOnly Apply never mutates (contract-tested in seqspec)
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
// sequential-use contract. The server's appliers persist shard snapshots
// from it.
func (u *Universal) State(pid int) seqspec.State {
	u.gcAttach(pid)
	return u.replay(pid, u.fac.Observe())
}

// replay reconstructs the object state after all entries of list (newest
// first), stopping early at snapshots when present. The result is private:
// a clone of the snapshot the walk stopped at, or a fresh Init.
func (u *Universal) replay(pid int, list *Node) seqspec.State {
	state, _ := u.replayPublish(pid, list, false)
	return state
}

// replayPublish is replay plus the helping write of the batched path: with
// help set it publishes the response of every entry it applies whose result
// slot is still empty, and reports how many slots it filled. Publication is
// sound because list is decided — every replayer reconstructs the same
// state below each entry (Lemma 24's coherence plus snapshot correctness),
// and Apply is deterministic (the seqspec response-publication contract),
// so concurrent publishers store identical values.
func (u *Universal) replayPublish(pid int, list *Node, help bool) (seqspec.State, int) {
	sc := &u.scratch[pid]
	pending := sc.pending[:0]
	var state seqspec.State
	published := 0
	stop := int64(0) // log index of the snapshot the walk stopped at
	//wf:bounded [n*k] walks to the first snapshotted entry: at most snapEvery un-snapshotted entries per live process (Section 4.1's strong wait-freedom bound), or the whole finite list without truncation
	for n := list; ; n = n.Rest() {
		if n == nil {
			state = u.seq.Init()
			break
		}
		if s := n.Entry.snapshot.Load(); s != nil {
			// s.state is the state before n.Entry's op; apply it first.
			state = s.state.Clone()
			stop = int64(n.Len)
			resp := state.Apply(n.Entry.Op)
			if help {
				published += publishIfEmpty(n.Entry, resp)
			}
			break
		}
		pending = append(pending, n.Entry)
	}
	//wf:bounded [n*k] drains the pending buffer the walk above gathered, one Apply per un-snapshotted entry — same Section 4.1 bound, paid a second time
	for i := len(pending) - 1; i >= 0; i-- {
		resp := state.Apply(pending[i].Op)
		if help {
			published += publishIfEmpty(pending[i], resp)
		}
	}

	sc.pending = pending
	u.stats.replayLen.Observe(int64(len(pending)))
	// Step accounting for the certificate cross-check: the walk visited
	// len(pending) nodes plus its stopping node, the drain applied
	// len(pending) entries, and the operation around this replay spends a
	// constant on its cons or observe, its own apply, and publication.
	u.stats.opSteps.Observe(2*int64(len(pending)) + 4)
	u.gcObserve(pid, stop)
	return state, published
}

// publishIfEmpty fills e's result slot if no one has, reporting 1 when this
// call published.
func publishIfEmpty(e *Entry, resp int64) int {
	if _, ok := e.Result(); ok {
		return 0
	}
	e.Publish(resp)
	return 1
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

// Helped reports how many batched write operations returned a response
// published by a concurrent executor (universal.helped): no replay, no
// snapshot clone, no apply of their own. Zero when batching is off or in
// the WithMetrics(nil) no-op mode.
func (u *Universal) Helped() int64 { return u.stats.helped.Load() }

// BatchStats reports (executor passes, mean batch size, max batch size)
// from the universal.batch_len histogram: how many responses each batched
// replay pass settled. Mean 1 means no combining happened; the paper's
// combining-network ideal is one pass per wave of concurrent writers.
func (u *Universal) BatchStats() (batches int64, mean float64, max int64) {
	h := u.stats.batchLen
	return h.Count(), h.Mean(), h.Max()
}
