package core

import "waitfree/internal/seqspec"

// entryChunk is how many entries InvokeBatch allocates in one object. Four
// 128-byte entries are 512 bytes, the largest size class the Go allocator
// serves a pointer-holding object from without a malloc header, so a wave
// of n entries makes ⌈n/4⌉ allocations instead of n, and the same bytes.
// A chunk lives as long as any of its entries: when the log GC anchors at
// a wave's newest entry, the older entries of its chunk sit just below the
// anchor, and their list cells would keep every older wave reachable, so
// the anchor swing severs the entryChunk-1 cells below the anchor as well
// (gcSwing).
const entryChunk = 4

// InvokeBatch executes ops on behalf of pid as one announced wave: every
// operation is consed individually (each gets its own linearization point,
// in program order), then a single replay pass settles the whole wave —
// one traversal publishes each earlier entry's response on its way down
// (the helping write of replayPublish), one snapshot at the newest entry
// covers all of them, and one GC mark advance amortizes the min-scan over
// the batch. Responses land in out[i] (which must have room for len(ops)).
//
// It is the construction's one batch path: the server's committer drains
// persisted operations from every shard and retires each shard's N of them
// in one pass, paying the replay/clone/mark costs once instead of N times.
// Invoke never batches.
//
// The per-pid sequential contract of Invoke applies: one InvokeBatch is
// one sequence of invocations by pid. Entries of concurrent pids may
// interleave between the batch's entries in the decided order; responses
// are computed against that decided order, so linearizability is inherited
// unchanged. If a concurrent pid's snapshot lands above one of the
// batch's entries (stopping the settling replay early), the straggler is
// re-resolved from its own cons result — the bound stays one bounded
// replay per unresolved entry, same as Invoke. pid's GC register takes the
// settling pass's stop only after the stragglers: until then it stays at
// or below every straggler's stopping point, so no sever can cut the cells
// a straggler's walk still has to pass.
func (u *Universal) InvokeBatch(pid int, ops []seqspec.Op, out []int64) {
	if len(ops) == 0 {
		return
	}
	if len(out) < len(ops) {
		panic("core: InvokeBatch out buffer shorter than ops")
	}
	if len(ops) == 1 {
		out[0] = u.Invoke(pid, ops[0])
		return
	}
	u.gcAttach(pid)
	sc := &u.scratch[pid]
	entries, priors := sc.entries[:0], sc.priors[:0]
	var chunk []Entry
	//wf:bounded [B] one cons per batch entry: B is the caller's batch length
	for i := range ops {
		if len(chunk) == 0 {
			chunk = make([]Entry, min(entryChunk, len(ops)-i))
		}
		e := &chunk[0]
		chunk = chunk[1:]
		initEntry(e, pid, u.seqs[pid].Add(1), ops[i])
		u.stats.consOps.Inc()
		priors = append(priors, u.fac.FetchAndCons(pid, e))
		entries = append(entries, e)
	}
	// One pass for the wave: the walk down from the last entry's prior
	// traverses every earlier batch entry (they are below it and carry no
	// snapshot yet) and publishes its response.
	last := entries[len(entries)-1]
	var stop int64
	var published int
	out[len(ops)-1], stop, published = u.execute(pid, last, priors[len(priors)-1], true)
	//wf:bounded [B] one result collection (and at most one straggler replay) per batch entry
	for i, e := range entries[:len(entries)-1] {
		if v, ok := e.Result(); ok {
			out[i] = v
			continue
		}
		// Straggler: a concurrent pid's snapshot stopped the settling pass
		// above this entry. Resolve it from its own decided prior, exactly
		// as Invoke would have, in one window with its own op. Its walk
		// stops below the settling pass's stop, so pid's register stays
		// where it was until the last straggler is resolved.
		_, out[i], _, _ = u.replayPublish(pid, priors[i], e, false)
		e.Publish(out[i])
	}
	u.gcSettle(pid, last, stop, published > 0)
	clear(entries)
	clear(priors)
	sc.entries, sc.priors = entries[:0], priors[:0]
}
