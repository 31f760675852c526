package core

import "runtime"

// Helping-based batch execution (announce-and-help), the combining-network
// idea of the paper's Sections 1 and 5 carried into the universal
// construction's execution layer.
//
// The front end already *announces* every operation: the cons threads the
// entry into the shared log (and ConsFAC literally publishes it in a
// per-pid announce register, merging all announced entries into one decided
// batch per consensus round). What the unbatched construction wastes is the
// execution step — every writer replays the log prefix, clones a snapshot,
// and applies its own operation, even though a single replay over the same
// decided prefix computes all of their responses. Batching closes that gap
// with the entry's result slot (Entry.Publish/Entry.Result):
//
//   - An *executor* replays once, applying every decided entry and its own
//     operation in one edit window, and publishes each entry's response
//     into its result slot. One replay (one clone, of the snapshot it
//     stops at), one snapshot store of the state its own operation
//     produced, a whole batch of writers served.
//   - A *helped* writer finds its slot full after its cons and returns the
//     published response — no replay, no clone.
//
// Who waits and who executes is decided by the log head. An executor pass
// can only settle entries *below* its own (they are its decided prior), so
// help always flows from newer entries to older ones, and the right policy
// is the opposite of first-come-first-served: the writer that finds its own
// entry still at the head is the newest announcer — nobody is positioned
// above it to help — so it executes immediately, settling everything below.
// A writer that sees a newer entry above its own waits instead: that entry's
// owner (or whoever settles *it*) must replay through every un-snapshotted
// entry beneath it before stopping, so the wait is answered by the very pass
// that makes waiting worthwhile. Waiting on cons age instead (everyone
// waits, oldest gives up first) inverts the help direction and degenerates
// to no helping at all, with every op paying the full window first.
//
// Wait-freedom is preserved, not traded: the help wait is a counted window
// (helpSpinBudget steps), after which the writer executes the batch itself
// on the ordinary replay path. A stalled executor can therefore delay a
// helped return by at most the window; it can never block it. The per-op
// bound stays the Section 4.1 O(n) — cons (bounded by the fetch-and-cons
// contract) + one Observe + bounded wait + at most one bounded replay.
//
// The replay bound also survives the thinner snapshot stream: an executor
// stores one snapshot at its *own* entry per pass (execute, the tail every
// write path shares), and helped entries store none, but every helped entry
// lies below some executor's entry in the decided order, so a later replay
// stops at that executor's snapshot before reaching them. Un-snapshotted
// entries above the newest snapshot belong to in-flight batches — at most
// one per live process, the same O(n) frontier as the unbatched path.

const (
	// helpSpinBudget is the counted help-wait window: how many result-slot
	// checks a waiting writer performs before executing the batch itself.
	// Sized to roughly one executor pass (a short replay plus one state
	// clone); the window is entered only when a newer entry already sits
	// above the writer's own, so it is usually answered well before expiry.
	//
	//wf:param B
	helpSpinBudget = 4096
	// helpYieldEvery spaces runtime.Gosched calls through the window so the
	// executor gets scheduled even at GOMAXPROCS=1. Eager yielding is
	// deliberate: a waiter's spin cycles are taken from the very cores the
	// executor and the still-announcing writers need.
	helpYieldEvery = 4
	// gatherEvery is the gather-probe period: even with the contended hint
	// off, every gatherEvery-th operation per process yields once at the
	// head so a batch can form. Concurrency alone does not make announced
	// entries overlap — on few cores, writers that never yield between cons
	// and execution each see their own entry still at the head and execute
	// solo — so batching has to probe for waves periodically; a formed
	// batch then keeps the hint set and the gather continuous. Uncontended,
	// the probe costs one runtime.Gosched per gatherEvery operations.
	gatherEvery = 64
)

// invokeBatched is the batched write path: cons, then either execute the
// whole decided batch in one replay pass (if this entry is the newest
// announced) or wait a bounded window for the newer writers above to settle
// it.
func (u *Universal) invokeBatched(pid int, e *Entry) int64 {
	gather := u.contended.Load() || e.Seq%gatherEvery == 0
	prior := u.fac.FetchAndCons(pid, e)
	if resp, ok := u.awaitHelp(e, gather); ok {
		return resp
	}
	// Executor path: one replay publishes every unfilled result slot it
	// passes, and one snapshot, at this entry above all of them, covers the
	// whole batch.
	resp, published := u.execute(pid, e, prior, true)
	u.contended.Store(published > 0)
	return resp
}

// awaitHelp decides e's role in its batch and, for waiters, waits a bounded
// window for the response. e executes (ok=false) when it is still the newest
// announced entry: no one above it can settle it, and its own pass settles
// everything below. e waits when a newer entry has been consed above: any
// executor pass from up there must traverse every un-snapshotted entry on
// its way down — e among them — and publish its response. With gather set, a
// writer still at the head yields once and rechecks, giving already-runnable
// writers the chance to announce above it and turn its solo pass into a
// batch (theirs or its own).
func (u *Universal) awaitHelp(e *Entry, gather bool) (int64, bool) {
	if resp, ok := e.Result(); ok {
		u.recordHelped(e)
		return resp, true
	}
	head := u.fac.Observe()
	if head == nil || head.Entry == e {
		if !gather {
			return 0, false
		}
		// Gather: one yield, then execute unless someone announced above
		// meanwhile. Cheap enough to pay every gatherEvery-th op even with
		// no contention anywhere, and with the hint set it runs every op,
		// chaining: each announcer hands the core on, the last one to join
		// the wave comes back still at the head and executes it all.
		runtime.Gosched()
		// A writer that consed above during the gather may already have
		// settled e on its way down.
		if resp, ok := e.Result(); ok {
			u.recordHelped(e)
			return resp, true
		}
		if head = u.fac.Observe(); head == nil || head.Entry == e {
			return 0, false
		}
	}
	//wf:bounded helpSpinBudget iterations: a counted courtesy window; on expiry the caller executes the batch itself on the ordinary O(n) replay path, so a stalled executor delays but never blocks
	for i := 0; i < helpSpinBudget; i++ {
		if resp, ok := e.Result(); ok {
			u.recordHelped(e)
			return resp, true
		}
		if i%helpYieldEvery == helpYieldEvery-1 {
			runtime.Gosched()
		}
	}
	return 0, false
}

// recordHelped accounts one helped return — the operation skipped its replay
// and its snapshot store — and keeps the gather hint set: being helped is
// proof a batch formed. The helped process replayed nothing, so it advances
// its observed-prefix register from the gossip floor instead: a pid served
// entirely by executors must not pin the low-water mark.
func (u *Universal) recordHelped(e *Entry) {
	u.stats.helped.Inc()
	u.contended.Store(true)
	u.gcAdoptFloor(e.Pid)
}
