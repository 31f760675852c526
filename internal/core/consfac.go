package core

import (
	"fmt"
	"sync/atomic"

	"waitfree/internal/consensus"
	"waitfree/internal/wfstats"
)

// ConsFAC is the Figure 4-5 fetch-and-cons: a wait-free implementation from
// an unbounded array of n-process consensus objects, establishing that any
// object that solves n-process consensus is universal (Theorem 26).
//
// Each process keeps three single-writer atomic registers: announce (its
// latest operation entry), round (the latest consensus round it executed)
// and prefer (its preference list after that round). A fetch-and-cons
// announces its entry, builds a goal of all announced entries, catches up
// with the highest observed round, then runs at most n further consensus
// rounds. In each round it proposes the previous winner's preference
// extended with its unmet goal entries, joins the round's consensus to
// elect a winner (processes elect by id, per the paper's convention), and
// adopts the winner's preference. Winning a round fixes the caller's entry
// in the list; after n losses the entry is guaranteed present anyway,
// because some process won twice in between and its second goal included
// this process's announcement (Lemma 24's argument).
type ConsFAC struct {
	//wf:param n
	n int
	// announce, round and prefer are the paper's per-process single-writer
	// registers: slot pid is stored only by pid's own FetchAndCons.
	//
	//wf:len n
	//wf:singlewriter pid
	announce []atomic.Pointer[Entry]
	//wf:len n
	//wf:singlewriter pid
	round []atomic.Int64
	//wf:len n
	//wf:singlewriter pid
	prefer []atomic.Pointer[Node]
	rounds *roundArray

	// decided[p] is a single-writer register holding the longest list p has
	// *certified* as decided: the suffix of a coherent view headed by p's
	// own entry. p stores it before its fetch-and-cons returns, so a scan of
	// decided[] sees every completed operation; prefer[] would not do — it
	// transiently holds proposals whose head entries are not yet ordered.
	//
	//wf:len n
	//wf:singlewriter pid
	decided []atomic.Pointer[Node]

	// lastWinner[p] is the paper's persistent per-process local variable
	// "winner": the winner of the last round p participated in (-1 before
	// any). Only process p accesses entry p.
	//
	//wf:len n
	//wf:singlewriter pid
	lastWinner []int

	// scratch[p] holds p's reusable goal and merge buffers. Processes call
	// FetchAndCons sequentially, so slot p has a single writer; reusing the
	// buffers removes the three per-call allocations (goal, found, resolved)
	// from the write hot path. Nothing built in them outlives the call:
	// merge copies goal entries into fresh list nodes.
	//
	//wf:len n
	//wf:singlewriter pid
	scratch []facScratch

	// decisions counts consensus rounds joined, for the Corollary 27
	// experiments (at most n+1 per operation).
	decisions atomic.Int64
	ops       atomic.Int64

	// Instrument metrics; nil (no-op) until Instrument is called.
	opsCount   *wfstats.Counter
	roundsHist *wfstats.Histogram
	wins       *wfstats.Counter
}

// facScratch is one process's reusable FetchAndCons buffers: the goal slice
// (at most one announced entry per process, so capacity n never grows) and
// the merge membership marks.
type facScratch struct {
	goal     []*Entry
	found    []bool
	resolved []bool
}

// NewConsFAC builds a fetch-and-cons for n processes from a factory of
// fresh n-process consensus objects (one per round).
func NewConsFAC(n int, factory consensus.Factory) *ConsFAC {
	f := &ConsFAC{
		n:          n,
		announce:   make([]atomic.Pointer[Entry], n),
		round:      make([]atomic.Int64, n),
		prefer:     make([]atomic.Pointer[Node], n),
		decided:    make([]atomic.Pointer[Node], n),
		rounds:     newRoundArray(factory),
		lastWinner: make([]int, n),
		scratch:    make([]facScratch, n),
	}
	// The loop variable is each slot's owning pid: construction happens
	// before the object escapes, but writing through the owner index keeps
	// the single-writer discipline checkable end to end.
	for pid := range f.scratch {
		f.scratch[pid] = facScratch{
			goal:     make([]*Entry, 0, n),
			found:    make([]bool, n),
			resolved: make([]bool, n),
		}
	}
	for pid := range f.lastWinner {
		f.lastWinner[pid] = -1
	}
	return f
}

var _ FetchAndCons = (*ConsFAC)(nil)

// Instrument records the Figure 4-5 metrics into reg: consfac.ops,
// consfac.rounds (consensus rounds joined per FetchAndCons — the Corollary
// 27 quantity, bounded by n+1), consfac.round_wins (rounds the caller won,
// fixing its entry), and consfac.install_races (lost CAS attempts lazily
// installing consensus rounds — each loss means another process installed
// the round, so retries are bounded). Call before the object is used
// concurrently; nil reg leaves the no-op mode in place.
func (f *ConsFAC) Instrument(reg *wfstats.Registry) {
	f.opsCount = reg.Counter("consfac.ops")
	f.roundsHist = reg.Histogram("consfac.rounds")
	f.wins = reg.Counter("consfac.round_wins")
	f.rounds.races = reg.Counter("consfac.install_races")
}

// FetchAndCons implements FetchAndCons (Figure 4-5).
func (f *ConsFAC) FetchAndCons(pid int, e *Entry) *Node {
	f.ops.Add(1)
	f.opsCount.Inc()
	joined := int64(0) // rounds this call joins, for the consfac.rounds histogram
	defer func() { f.roundsHist.Observe(joined) }()
	f.announce[pid].Store(e)

	// Build the goal: everyone's latest announced entry (at most one per
	// process, since processes are sequential), and find the highest round
	// anyone has executed.
	sc := &f.scratch[pid]
	goal := sc.goal[:0]
	lastRound := int64(0)
	for p := 0; p < f.n; p++ {
		if a := f.announce[p].Load(); a != nil {
			goal = append(goal, a)
		}
		if r := f.round[p].Load(); r > lastRound {
			lastRound = r
		}
	}

	// Catch up: learn the winner of the most recent observed round. The
	// winner variable persists across this process's calls, so the base
	// preference always extends the last decided list this process saw.
	winner := f.lastWinner[pid]
	if lastRound > f.round[pid].Load() {
		joined++
		winner = f.decide(lastRound, pid)
	}

	defer func() { f.lastWinner[pid] = winner }()
	for r := lastRound + 1; r <= lastRound+int64(f.n); r++ {
		base := f.preferOf(winner)
		f.prefer[pid].Store(mergeWith(goal, base, f.decided, sc.found, sc.resolved))
		joined++
		w := f.decide(r, pid)
		winner = w
		dec := f.preferOf(w)
		f.prefer[pid].Store(dec)
		f.round[pid].Store(r)
		if w == pid {
			f.wins.Inc()
			return f.publish(pid, trim(dec, e))
		}
	}
	return f.publish(pid, trim(f.preferOf(winner), e))
}

// publish certifies self (the view suffix headed by the caller's own entry)
// as decided and returns its rest. Entries at or below the caller's own are
// ordered — Lemma 24's coherence means every view agrees on everything from
// the caller's entry down, even when the view's *head* still carries
// undecided proposals — so self is safe to expose to Observe. The store
// happens before FetchAndCons returns, giving Observe its completed-
// operation guarantee.
func (f *ConsFAC) publish(pid int, self *Node) *Node {
	f.decided[pid].Store(self)
	return self.Rest()
}

// Observe implements FetchAndCons: scan the n decided registers and return
// the longest certified list, O(n) loads and no consensus round. Certified
// lists form a coherent family (suffixes of coherent views), so the longest
// one contains every entry of every other — in particular every operation
// that completed before the scan began, whose invoker published it first.
// Each register is monotone (a process's successive certified lists extend
// one another), so a register that grows mid-scan only ever adds entries.
func (f *ConsFAC) Observe() *Node {
	var best *Node
	for p := 0; p < f.n; p++ {
		if d := f.decided[p].Load(); d != nil && (best == nil || d.Len > best.Len) {
			best = d
		}
	}
	return best
}

// decide joins consensus round r, electing a process id.
func (f *ConsFAC) decide(r int64, pid int) int {
	f.decisions.Add(1)
	return int(f.rounds.get(r).Decide(pid, int64(pid)))
}

// preferOf loads p's preference; the virtual process -1 prefers the empty
// list.
func (f *ConsFAC) preferOf(p int) *Node {
	if p < 0 {
		return nil
	}
	return f.prefer[p].Load()
}

// RoundsPerOp reports the average number of consensus rounds joined per
// fetch-and-cons so far (Corollary 27: bounded by n+1).
func (f *ConsFAC) RoundsPerOp() float64 {
	ops := f.ops.Load()
	if ops == 0 {
		return 0
	}
	return float64(f.decisions.Load()) / float64(ops)
}

// merge implements the paper's "\" operator: prepend to base every goal
// entry not already in base, preserving goal's relative order.
//
// Membership is resolved in one walk of base. Within any list of the
// coherent family, a process's entries appear with strictly decreasing
// sequence numbers from the head (a process announces its next operation
// only after the previous one completed and entered the list), so once the
// walk passes an entry of the same process with a smaller sequence number,
// the probe entry cannot appear deeper.
func merge(goal []*Entry, base *Node) *Node {
	return mergeWith(goal, base, nil, make([]bool, len(goal)), make([]bool, len(goal)))
}

// mergeWith is merge with caller-owned membership buffers (len ≥ len(goal))
// so the hot path reuses per-pid scratch instead of allocating two slices
// per consensus round, plus the decided registers backing the truncation
// fallback below (nil when the caller has none — untruncated unit tests).
// Node churn audit: the only allocations left are the Cons cells for goal
// entries genuinely absent from base — each becomes part of the proposed
// (and possibly decided) list, so none is avoidable.
//
// Truncation fallback. A base truncated by the log GC (gc.go) can cut the
// walk short at the severed anchor, hiding an already-ordered goal entry
// whose node was retired: the goal may hold a *stale* copy of announce[p],
// loaded before p overwrote it with its next operation, and once p (and
// everyone else) moved past the old entry the mark can pass it and the
// swing sever it — along with all of p's older entries that the smaller-Seq
// rule would otherwise resolve against. Walk membership alone would then
// re-cons the completed entry and replays would apply it twice. The decided
// registers close the gap without any walk: an entry below the mark always
// has an owner whose certified decided list is headed by an entry at least
// as new (the owner's observed register can only pass an entry after the
// owner's later operation published a newer decided head — see gc.go), so a
// not-found goal entry g is consed only when decided[g.Pid] has not reached
// g.Seq. For an in-flight g the owner's decided head is strictly older, so
// the fallback never suppresses the Lemma 24 helping guarantee; and a
// completed g missing from an *untruncated* base only happens in proposals
// that cannot win their round (the fixed order through the previous round
// is contained in base), where membership is irrelevant.
func mergeWith(goal []*Entry, base *Node, decided []atomic.Pointer[Node], found, resolved []bool) *Node {
	if len(goal) == 0 {
		return base
	}
	unresolved := len(goal)
	found = found[:len(goal)]
	resolved = resolved[:len(goal)]
	for i := range found {
		found[i], resolved[i] = false, false
	}
	for n := base; n != nil && unresolved > 0; n = n.Rest() {
		cur := n.Entry
		for i, g := range goal {
			if resolved[i] {
				continue
			}
			if cur == g {
				found[i], resolved[i] = true, true
				unresolved--
			} else if cur.Pid == g.Pid && cur.Seq < g.Seq {
				resolved[i] = true // g cannot appear deeper
				unresolved--
			}
		}
	}
	out := base
	for i := len(goal) - 1; i >= 0; i-- {
		if found[i] {
			continue
		}
		if g := goal[i]; decided != nil {
			if d := decided[g.Pid].Load(); d != nil && d.Entry.Seq >= g.Seq {
				continue // g completed and is ordered; the walk missed it only by truncation
			}
		}
		// A fresh cell: proposals of several rounds and processes may each
		// hold g, so the entry's embedded cell (Entry.cell) goes unused here.
		out = Cons(goal[i], out)
	}
	return out
}

// trim returns the node of entry e within list l; its Rest is the paper's
// trim (the caller's view of the state its operation observed), and the
// node itself is the decided prefix ending with e that publish certifies.
func trim(l *Node, e *Entry) *Node {
	for n := l; n != nil; n = n.Rest() {
		if n.Entry == e {
			return n
		}
	}
	panic(fmt.Sprintf("core: entry %s missing from decided list; Lemma 24 invariant broken", e))
}

// roundArray is the unbounded consensus[] array: a lock-free two-level
// radix of lazily installed consensus objects. Installation is a single
// CAS; losing the race means adopting the winner's object, so access stays
// wait-free.
type roundArray struct {
	factory consensus.Factory
	dir     [dirSize]atomic.Pointer[roundChunk]

	// races counts lost installation CASes (another process published the
	// chunk or round first); nil (no-op) unless instrumented.
	races *wfstats.Counter
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits // rounds per chunk
	dirSize   = 1 << 14        // chunks; ~16M rounds capacity
)

type roundChunk struct {
	slots [chunkSize]atomic.Pointer[consensusBox]
}

type consensusBox struct{ obj consensus.Object }

func newRoundArray(factory consensus.Factory) *roundArray {
	return &roundArray{factory: factory}
}

func (a *roundArray) get(r int64) consensus.Object {
	ci := r >> chunkBits
	if ci >= dirSize {
		panic("core: consensus round capacity exceeded")
	}
	chunk := a.dir[ci].Load()
	if chunk == nil {
		fresh := &roundChunk{}
		if a.dir[ci].CompareAndSwap(nil, fresh) {
			chunk = fresh
		} else {
			a.races.Inc()
			chunk = a.dir[ci].Load()
		}
	}
	si := r & (chunkSize - 1)
	box := chunk.slots[si].Load()
	if box == nil {
		fresh := &consensusBox{obj: a.factory()}
		if chunk.slots[si].CompareAndSwap(nil, fresh) {
			box = fresh
		} else {
			a.races.Inc()
			box = chunk.slots[si].Load()
		}
	}
	return box.obj
}
