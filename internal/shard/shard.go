// Package shard is a sharded front end over the universal construction: a
// router that hashes partition keys across S independent Universal
// instances, each with its own fetch-and-cons.
//
// The paper's construction serializes every operation through one shared
// log, so throughput is bounded by one cons per operation no matter how
// many processes run. For key-partitionable workloads that bound is
// needless: operations on different keys never observe each other's
// effects, so each partition can run its own universal object and its own
// log. Sharding changes only the constant factors — each shard is still the
// paper's wait-free construction, and per-key linearizability is inherited
// from it.
//
// The consistency contract is the standard sharding trade-off: operations
// that address a single key are linearizable (they execute on exactly one
// Universal), while cross-shard operations (len-style aggregates) read each
// shard at a different instant and return a sum that no single moment may
// have exhibited.
//
// Sharding and batching compose: sharding splits contention across logs,
// and helping-based batching (core.WithBatching, default-on for the
// waitfree.NewShardedKV facade) absorbs whatever contention remains within
// each shard — concurrent writers that hash to one shard are served by a
// single executor's replay pass instead of replaying one by one.
//
//wf:waitfree
package shard

import (
	"fmt"

	"waitfree/internal/core"
	"waitfree/internal/seqspec"
	"waitfree/internal/wfstats"
)

// Router classifies an operation for routing: keyed operations return their
// partition key (the router hashes it to a shard), cross-shard operations
// return keyed=false (the operation runs on every shard and the responses
// are summed).
//
// Panic contract: a router must panic on an operation kind it does not
// recognize rather than guess a route. Routing an unknown op to one shard
// silently partitions state that the spec may treat as global; failing loudly
// at the front door is the only safe default. KVRouter follows this contract
// with the message "shard: kv: unknown op <kind>".
type Router func(op seqspec.Op) (key int64, keyed bool)

// KVRouter routes the seqspec.KV operation set: put/get/del by their key
// argument, len across all shards.
func KVRouter(op seqspec.Op) (int64, bool) {
	switch op.Kind {
	case "put", "get", "del":
		return op.Arg(0), true
	case "len":
		return 0, false
	}
	panic("shard: kv: unknown op " + op.Kind)
}

// Sharded fans operations across independent Universal instances.
type Sharded struct {
	//wf:len S
	shards []*core.Universal
	// route classifies one operation: a hash and a branch, no iteration.
	//
	//wf:steps 1
	route Router

	// shardOps[i] counts operations routed to shard i; crossOps counts
	// cross-shard fan-outs. Nil entries (the default) are the no-op mode.
	//
	//wf:len S
	shardOps []*wfstats.Counter
	crossOps *wfstats.Counter
}

// New builds a sharded front end: shards independent Universal instances
// over seq, each for procs processes and with its own fetch-and-cons from
// mk. Options apply to every shard.
func New(seq seqspec.Object, route Router, shards, procs int, mk func() core.FetchAndCons, opts ...core.Option) *Sharded {
	if shards < 1 {
		panic("shard: need at least one shard")
	}
	s := &Sharded{shards: make([]*core.Universal, shards), route: route,
		shardOps: make([]*wfstats.Counter, shards)}
	for i := range s.shards {
		s.shards[i] = core.NewUniversal(seq, mk(), procs, opts...)
	}
	return s
}

// Instrument records the front end's routing metrics into reg: shard.ops.<i>
// (operations routed to shard i), shard.cross_ops (cross-shard fan-outs) and
// shard.imbalance_pct, a derived gauge computed at snapshot time as the most
// loaded shard's share of the mean, in percent (100 = perfectly balanced).
// Call before the front end is used concurrently; nil reg leaves the no-op
// mode in place. The shards' own universal.* metrics stay in their private
// registries — pass core.WithMetrics(reg) among New's options to aggregate
// those into reg as well.
func (s *Sharded) Instrument(reg *wfstats.Registry) {
	if reg == nil {
		return
	}
	for i := range s.shardOps {
		s.shardOps[i] = reg.Counter(fmt.Sprintf("shard.ops.%d", i))
	}
	s.crossOps = reg.Counter("shard.cross_ops")
	ops := append([]*wfstats.Counter(nil), s.shardOps...)
	reg.GaugeFunc("shard.imbalance_pct", func() int64 {
		// Accumulate and divide in float64: the old int64 product
		// max·100·S overflowed once the hottest shard passed ~2^63/(100·S)
		// operations — about 10^15 ops at S=64, months of sustained load on
		// a long-lived server — and even the plain sum across shards can
		// pass 2^63 before any single counter does. The quotient itself is
		// tiny (<= 100·S), so float64's 53-bit mantissa is ample.
		var max, total float64
		//wf:bounded [S] one load per shard stripe: ops is a fixed-length copy of the S per-shard counters
		for _, c := range ops {
			v := float64(c.Load())
			total += v
			if v > max {
				max = v
			}
		}
		if total == 0 {
			return 0
		}
		return int64(max / total * 100 * float64(len(ops)))
	})
}

// NewKV builds a sharded key-value map (seqspec.KV semantics per key).
func NewKV(shards, procs int, mk func() core.FetchAndCons, opts ...core.Option) *Sharded {
	return New(seqspec.KV{}, KVRouter, shards, procs, mk, opts...)
}

// Invoke executes op on behalf of process pid: on the key's shard for keyed
// operations, summed across every shard otherwise. The per-pid sequential
// contract of Universal.Invoke applies across the whole front end.
func (s *Sharded) Invoke(pid int, op seqspec.Op) int64 {
	if key, keyed := s.route(op); keyed {
		i := s.shardOf(key)
		s.shardOps[i].Inc()
		return s.shards[i].Invoke(pid, op)
	}
	s.crossOps.Inc()
	var total int64
	for _, u := range s.shards {
		total += u.Invoke(pid, op)
	}
	return total
}

// InvokeBatch executes ops — every one already routed to shard sh by the
// caller (the server's per-shard applier partitions work with ShardOf) —
// as one announced wave on that shard: one replay pass settles the whole
// batch, one snapshot covers it (see core.Universal.InvokeBatch).
// Responses land in out[i]. The per-pid sequential contract applies; the
// caller is responsible for sh being each op's ShardOf route — this method
// deliberately skips per-op routing, which is the point of batching.
func (s *Sharded) InvokeBatch(sh, pid int, ops []seqspec.Op, out []int64) {
	s.shardOps[sh].Add(int64(len(ops)))
	s.shards[sh].InvokeBatch(pid, ops, out)
}

// Detach releases pid's log-GC pin on every shard (core.Universal.Detach):
// call it when a leased pid's client departs, so a register frozen at the
// client's last operation stops pinning any shard's low-water mark. Like
// Invoke, it must be called from pid's thread of control with no operation
// in flight; the pid re-arms shard by shard on its next invokes. A no-op
// when log GC is off.
func (s *Sharded) Detach(pid int) {
	for _, u := range s.shards {
		u.Detach(pid)
	}
}

// ShardOf reports which shard a partition key routes to — the same hash
// Invoke uses. Exported for front ends that partition work per shard (the
// server's persistence appliers) and for tests.
func (s *Sharded) ShardOf(key int64) int { return s.shardOf(key) }

// Handle returns pid's front end bound to the whole sharded object.
func (s *Sharded) Handle(pid int) *Handle { return &Handle{s: s, pid: pid} }

// Handle is a per-process front end of a Sharded object.
type Handle struct {
	s   *Sharded
	pid int
}

// Invoke executes op on behalf of the handle's process.
func (h *Handle) Invoke(op seqspec.Op) int64 { return h.s.Invoke(h.pid, op) }

// Detach releases the handle's log-GC pin on every shard; see
// Sharded.Detach.
func (h *Handle) Detach() { h.s.Detach(h.pid) }

// Shards reports the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard exposes shard i for tests, inspection and the server's snapshots.
func (s *Sharded) Shard(i int) *core.Universal { return s.shards[i] }

// FastReads sums the read-fast-path counters across shards.
func (s *Sharded) FastReads() int64 {
	var total int64
	for _, u := range s.shards {
		total += u.FastReads()
	}
	return total
}

// Helped sums the helped-write counters across shards: batched write
// operations that returned a response published by a concurrent executor
// (see core.WithBatching). Zero when batching is off.
func (s *Sharded) Helped() int64 {
	var total int64
	for _, u := range s.shards {
		total += u.Helped()
	}
	return total
}

// BatchStats aggregates batch-execution statistics across shards: total
// executor passes, weighted mean batch size, and the largest per-shard max.
func (s *Sharded) BatchStats() (batches int64, mean float64, max int64) {
	var settled float64
	for _, u := range s.shards {
		b, m, mx := u.BatchStats()
		batches += b
		settled += m * float64(b)
		if mx > max {
			max = mx
		}
	}
	if batches > 0 {
		mean = settled / float64(batches)
	}
	return batches, mean, max
}

// Retired sums the log-GC retirement counts across shards: how many decided
// log entries the low-water-mark protocol (core.WithLogGC) has severed in
// total. Zero when GC is off.
func (s *Sharded) Retired() int64 {
	var total int64
	for _, u := range s.shards {
		total += u.Retired()
	}
	return total
}

// Anchors reports each shard's applied low-water mark (core's
// Universal.Anchor): the log index of its anchor node, 0 if that shard has
// retired nothing. Marks advance independently — each shard's mark is the
// minimum over its own processes' observed-prefix registers.
func (s *Sharded) Anchors() []int64 {
	marks := make([]int64, len(s.shards))
	for i, u := range s.shards {
		marks[i] = u.Anchor()
	}
	return marks
}

// ReplayStats aggregates replay statistics across shards: total replays,
// weighted mean replay length, and the largest per-shard max.
func (s *Sharded) ReplayStats() (ops int64, mean float64, max int64) {
	var cells float64
	for _, u := range s.shards {
		o, m, mx := u.ReplayStats()
		ops += o
		cells += m * float64(o)
		if mx > max {
			max = mx
		}
	}
	if ops > 0 {
		mean = cells / float64(ops)
	}
	return ops, mean, max
}

// shardOf hashes a partition key to a shard index. Keys are arbitrary
// int64s (often small and sequential), so a finalizing mixer spreads them
// before the modulus.
func (s *Sharded) shardOf(key int64) int {
	return int(mix64(uint64(key)) % uint64(len(s.shards)))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
