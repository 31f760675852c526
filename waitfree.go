// Package waitfree is a production-quality Go reproduction of Maurice
// Herlihy's "Impossibility and Universality Results for Wait-Free
// Synchronization" (PODC 1988): the consensus hierarchy, the impossibility
// machinery, and — above all — the universal construction that turns any
// deterministic sequential object into a wait-free linearizable concurrent
// object.
//
// The façade exposes the three things a user of the paper's results wants:
//
//   - Consensus objects at every level of the hierarchy
//     (NewCASConsensus, NewAugQueueConsensus, ...).
//   - Fetch-and-cons, the paper's universal list primitive
//     (NewSwapFetchAndCons, NewConsensusFetchAndCons).
//   - The universal construction (New), which wraps a sequential
//     specification (Register, Counter, Queue, ..., or your own
//     seqspec.Object) into a wait-free object driven per-process.
//
// Everything underneath lives in internal/ packages; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-to-code map.
//
//wf:waitfree
package waitfree

import (
	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
	"waitfree/internal/wfstats"
)

// Op is an operation invocation on a wait-free object.
type Op = seqspec.Op

// Object is a deterministic sequential specification; any Object can be
// made wait-free by New.
type Object = seqspec.Object

// Empty is the total-operation response for "nothing there" (deq on an
// empty queue, get of a missing key, ...).
const Empty = seqspec.Empty

// Prebuilt sequential specifications.
type (
	// Register is a single read/write register.
	Register = seqspec.Register
	// Counter supports get, inc and add.
	Counter = seqspec.Counter
	// Queue is a FIFO queue (enq, deq, peek, len).
	Queue = seqspec.Queue
	// Stack is a LIFO stack (push, pop, len).
	Stack = seqspec.Stack
	// Set is a set with insert, contains, removeMin and len.
	Set = seqspec.Set
	// PQueue is a min-priority queue (insert, deleteMin, min, len).
	PQueue = seqspec.PQueue
	// KV is a key-value map (put, get, del, len).
	KV = seqspec.KV
	// Bank is a multi-account bank (deposit, withdraw, transfer, balance,
	// total).
	Bank = seqspec.Bank
	// List is a cons list (cons, head, nth, len).
	List = seqspec.List
)

// Consensus is a one-shot n-process consensus object: every participant
// calls Decide(pid, input) once and all calls return the same
// participant's input.
type Consensus = consensus.Object

// ConsensusFactory builds fresh consensus objects (the universal
// construction uses one per round).
type ConsensusFactory = consensus.Factory

// NewCASConsensus returns n-process consensus from a compare-and-swap
// register (Theorem 7).
func NewCASConsensus(n int) Consensus { return consensus.NewCAS(n) }

// NewTASConsensus returns two-process consensus from test-and-set
// (Theorem 4); pids must be 0 and 1.
func NewTASConsensus() Consensus { return consensus.NewTAS2() }

// NewQueueConsensus returns two-process consensus from a FIFO queue
// (Theorem 9).
func NewQueueConsensus() Consensus { return consensus.NewQueue2() }

// NewAugQueueConsensus returns n-process consensus from an augmented queue
// with peek (Theorem 12).
func NewAugQueueConsensus(n int) Consensus { return consensus.NewAugQueue(n) }

// NewMoveConsensus returns n-process consensus from memory-to-memory move
// (Theorem 15).
func NewMoveConsensus(n int) Consensus { return consensus.NewMove(n) }

// NewMemSwapConsensus returns n-process consensus from memory-to-memory
// swap (Theorem 16).
func NewMemSwapConsensus(n int) Consensus { return consensus.NewMemSwap(n) }

// NewAssignConsensus returns n-process consensus from atomic n-register
// assignment (Theorem 19).
func NewAssignConsensus(n int) Consensus { return consensus.NewAssign(n) }

// NewAssign2PhaseConsensus returns (2m-2)-process consensus from m-register
// assignment (Theorems 20/21).
func NewAssign2PhaseConsensus(m int) Consensus { return consensus.NewAssign2Phase(m) }

// FetchAndCons is the paper's universal list primitive: atomically prepend
// an entry and observe the prior list.
type FetchAndCons = core.FetchAndCons

// Entry is a log entry threaded by FetchAndCons.
type Entry = core.Entry

// Node is an immutable cons cell of the shared log list returned by
// FetchAndCons.
type Node = core.Node

// NewSwapFetchAndCons returns the constant-time fetch-and-cons built from
// one memory-to-memory swap per operation (Figures 4-3/4-4).
func NewSwapFetchAndCons() FetchAndCons { return core.NewSwapFAC() }

// NewConsensusFetchAndCons returns the Figure 4-5 fetch-and-cons for n
// processes, built from at most n rounds of consensus per operation; any
// consensus factory works (Theorem 26: consensus implies universality).
func NewConsensusFetchAndCons(n int, factory ConsensusFactory) FetchAndCons {
	return core.NewConsFAC(n, factory)
}

// Universal is a wait-free linearizable object produced by New. Each
// process pid in [0, n) must call Invoke sequentially; distinct pids may
// invoke concurrently, and no pid can be blocked by the failure or delay of
// any other.
type Universal = core.Universal

// Handle is a per-process front end of a Universal object (Figure 4-1);
// obtain one with Universal.Handle(pid) and give each goroutine its own.
type Handle = core.Handle

// Option configures New.
type Option = core.Option

// WithoutTruncation disables the strongly-wait-free log-truncation
// refinement (Section 4.1); useful for measuring its effect.
func WithoutTruncation() Option { return core.WithoutTruncation() }

// WithoutFastReads routes read-only operations through the full write path
// (cons + snapshot); useful for measuring the read fast path against it.
func WithoutFastReads() Option { return core.WithoutFastReads() }

// WithLogGC enables low-water-mark log truncation: each front end publishes
// the log index its replays stop at, and each process's every-th write
// computes the collective minimum and severs the decided log below it, so
// Go's collector reclaims the retired tail. Live memory drops from O(total
// ops) to O(n + n·every). Requires truncation (snapshots
// anchor retention). A process pins the mark at its last published index
// only while attached — from its first Invoke until it calls Detach —
// exactly as a live peer pins a replicated log's Min(); detached pids
// (never arrived, or departed, e.g. returned to a connection lease pool)
// are skipped by the min-scan and re-arm safely on their next Invoke. Off
// by default for New; NewShardedKV turns it on (pass WithoutLogGC to
// disable there).
func WithLogGC(every int) Option { return core.WithLogGC(every) }

// WithoutLogGC disables low-water-mark log truncation; mainly useful to
// switch off NewShardedKV's default.
func WithoutLogGC() Option { return core.WithoutLogGC() }

// Metrics is a wait-free metrics registry (internal/wfstats): counters,
// gauges and power-of-two histograms recorded with single atomic operations
// — no locks, no allocation on the record path — and exported with
// Snapshot, WriteText or WriteJSON. A nil *Metrics is the no-op mode.
type Metrics = wfstats.Registry

// MetricSample is one metric's value in a Metrics snapshot.
type MetricSample = wfstats.Sample

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return wfstats.NewRegistry() }

// WithMetrics records the construction's universal.* metrics into reg.
// Instances sharing one registry aggregate (that is how a sharded front end
// sums its shards); WithMetrics(nil) selects the no-op mode, under which
// ReplayStats and FastReads read as zero.
func WithMetrics(reg *Metrics) Option { return core.WithMetrics(reg) }

// New builds a wait-free version of seq for n processes over fac. For a
// sensible default fetch-and-cons, pass NewSwapFetchAndCons() (constant
// time) or NewConsensusFetchAndCons(n, func() Consensus {
// return NewCASConsensus(n) }) (the full Theorem 26 reduction).
func New(seq Object, fac FetchAndCons, n int, opts ...Option) *Universal {
	return core.NewUniversal(seq, fac, n, opts...)
}

// Sharded is a sharded front end: operations are routed by partition key
// across independent Universal instances, one log per shard. Single-key
// operations stay linearizable; cross-shard aggregates (len) are sums of
// per-shard reads taken at different instants. Front ends that lease pids
// to transient clients (a connection pool) should call Detach(pid) when a
// client departs, releasing its log-GC pin on every shard.
type Sharded = shard.Sharded

// NewShardedKV builds a key-value map over shards independent universal
// objects: each key is hashed to one of them, and each has its own
// fetch-and-cons from mk and serves procs processes. For read-dominated,
// key-partitionable workloads this
// scales throughput near-linearly in the shard count. Low-water-mark log GC
// (WithLogGC) is on by default, keeping each shard's log memory bounded;
// disable it with WithoutLogGC.
func NewShardedKV(shards, procs int, mk func() FetchAndCons, opts ...Option) *Sharded {
	return shard.NewKV(shards, procs, mk, shard.Defaults(opts...)...)
}
