// Package shard is a sharded key-value front end over the universal
// construction: KVRouter hashes each key to one of S independent Universal
// instances over seqspec.KV, each with its own fetch-and-cons. The front end
// is KV-only, because the KV is the one object the server and every
// benchmark serve.
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
// Sharding splits contention across logs; within a shard every Invoke is
// the paper's one cons plus one replay, and nothing batches.
//
//wf:waitfree
package shard

import (
	"fmt"

	"waitfree/internal/core"
	"waitfree/internal/seqspec"
	"waitfree/internal/wfstats"
)

// KVRouter routes the seqspec.KV operation set: put/get/del return their
// key argument and keyed=true (the key hashes to one shard), len returns
// keyed=false (the operation runs on every shard and the responses are
// summed).
//
// Panic contract: KVRouter panics with "shard: kv: unknown op <kind>" on an
// operation kind it does not recognize rather than guess a route. Routing an
// unknown op to one shard silently partitions state that the spec may treat
// as global; failing loudly at the front door is the only safe default.
func KVRouter(op seqspec.Op) (key int64, keyed bool) {
	switch op.Kind {
	case "put", "get", "del":
		return op.Arg(0), true
	case "len":
		return 0, false
	}
	panic("shard: kv: unknown op " + op.Kind)
}

// Sharded fans KV operations across independent Universal instances.
type Sharded struct {
	//wf:len S
	shards []*core.Universal

	// shardOps[i] counts operations routed to shard i; crossOps counts
	// cross-shard fan-outs. Nil entries (the default) are the no-op mode.
	//
	//wf:len S
	shardOps []*wfstats.Counter
	crossOps *wfstats.Counter
}

// NewKV builds a sharded key-value map: shard i is a Universal instance
// over an empty seqspec.KV for procs processes, with its own
// fetch-and-cons from mk. Options apply to every shard; the shards share
// one metrics registry, a private one unless opts carry core.WithMetrics,
// so the aggregate accessors read it once. It panics when shards < 1.
func NewKV(shards, procs int, mk func() core.FetchAndCons, opts ...core.Option) *Sharded {
	if shards < 1 {
		panic("shard: need at least one shard")
	}
	opts = append([]core.Option{core.WithMetrics(wfstats.NewRegistry())}, opts...)
	s := &Sharded{shards: make([]*core.Universal, shards),
		shardOps: make([]*wfstats.Counter, shards)}
	for i := range s.shards {
		s.shards[i] = core.NewUniversal(seqspec.KV{}, mk(), procs, opts...)
	}
	return s
}

// Defaults returns the options of waitfree.NewShardedKV and the server:
// log GC at core.DefaultGCEvery, then opts, which may override.
func Defaults(opts ...core.Option) []core.Option {
	return append([]core.Option{core.WithLogGC(core.DefaultGCEvery)}, opts...)
}

// Instrument records the front end's routing metrics into reg: shard.ops.<i>
// (operations routed to shard i), shard.cross_ops (cross-shard fan-outs) and
// shard.imbalance_pct, a derived gauge computed at snapshot time as the most
// loaded shard's share of the mean, in percent (100 = perfectly balanced).
// Call before the front end is used concurrently; nil reg leaves the no-op
// mode in place. The shards' own universal.* metrics stay in their shared
// private registry — pass core.WithMetrics(reg) among NewKV's options to
// record those into reg as well.
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

// Invoke executes op on behalf of process pid: on the key's shard for keyed
// operations, summed across every shard otherwise. The per-pid sequential
// contract of Universal.Invoke applies across the whole front end.
func (s *Sharded) Invoke(pid int, op seqspec.Op) int64 {
	if key, keyed := KVRouter(op); keyed {
		i := s.ShardOf(key)
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

// InvokeBatch invokes ops, every one already routed to shard sh by the
// caller, one Invoke each on that shard, and writes op i's response to
// out[i]. The per-pid sequential contract applies. It batches nothing and
// has no caller in this module: the benchmark harness's layer timings
// (bench/layers.go) still call it, and it goes once they route their own
// runs.
func (s *Sharded) InvokeBatch(sh, pid int, ops []seqspec.Op, out []int64) {
	s.shardOps[sh].Add(int64(len(ops)))
	//wf:bounded [B] one Invoke per op: B is the caller's run length
	for i, op := range ops {
		out[i] = s.shards[sh].Invoke(pid, op)
	}
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
// server's committer) and for tests.
func (s *Sharded) ShardOf(key int64) int { return KeyShard(key, len(s.shards)) }

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

// FastReads reports the read-fast-path operations across shards. It and
// ReplayStats read the registry the shards share (see NewKV) once, through
// shard 0.
func (s *Sharded) FastReads() int64 { return s.shards[0].FastReads() }

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

// ReplayStats reports replay statistics across shards: replays, mean
// replay length and max replay length.
func (s *Sharded) ReplayStats() (ops int64, mean float64, max int64) {
	return s.shards[0].ReplayStats()
}

// KeyShard hashes a partition key to one of shards shards (boot recovery
// routes keys before the front end exists). Keys are arbitrary int64s, often
// small and sequential, so a finalizing mixer spreads them before the modulus.
func KeyShard(key int64, shards int) int {
	return int(mix64(uint64(key)) % uint64(shards))
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
