// Package core implements the paper's central contribution (Section 4): the
// universal construction that turns any deterministic sequential object into
// a wait-free linearizable concurrent object, by a two-step reduction:
//
//  1. Universality reduces to fetch-and-cons (Figures 4-1/4-2): represent
//     the object's state as the list of invocations applied to it, newest
//     first. An operation "really happens" when its log entry is atomically
//     consed onto the list; the response is computed by replaying the
//     entries that precede it.
//  2. Fetch-and-cons reduces either to one memory-to-memory swap
//     (Figures 4-3/4-4, constant time) or to at most n rounds of consensus
//     (Figure 4-5), so *any* object that solves n-process consensus is
//     universal (Theorem 26).
//
// The strongly-wait-free refinement (Section 4.1) has each process replace
// the cdr of its own log entry with a rebuilt state, bounding every replay
// at n entries. This package stores the state *after* the entry's own
// operation, which its process has just computed, rather than the state it
// reconstructed before it: a replay that stops at a snapshot then applies
// nothing for that entry.
//
//wf:waitfree
package core

import (
	"fmt"
	"sync/atomic"

	"waitfree/internal/seqspec"
)

// Entry is one announced operation: a log record that fetch-and-cons
// threads onto the shared list. Entries are identified by pointer; (Pid,
// Seq) is a human-readable identity for reports and tests.
//
// An entry owns its whole announcement, so announcing an operation
// allocates at most one object. newEntry copies up to two argument words
// into argv and points Op.Args at them (a wider op gets one fresh copy), so a caller
// may reuse its own Args buffer as soon as its invocation returns, and the
// decided log still replays the words it announced. cell is the list cell
// the swap fetch-and-cons threads the entry with (Figures 4-3/4-4 cons the
// announced record itself). ConsFAC leaves it unused: its proposal lists
// put one entry into many cells, so it allocates them with Cons.
//
// The layout is 120 bytes, in the 128-byte size class: the embedded cell
// and argv beside one snapshot slot and its flag. The entry carries no
// response: its invoker computes it in its own replay and returns it, and a
// replayer that stops at the entry's snapshot needs none.
type Entry struct {
	Pid int
	Seq int64
	Op  seqspec.Op

	argv [2]int64
	cell Node

	// snapState, once snapped is set, holds the object state immediately
	// *after* this entry's operation, stored by the strongly-wait-free
	// refinement: a replayer that reaches this entry starts from a clone of
	// it and applies nothing for it, instead of replaying further history.
	// The entry's own process writes it once and then sets snapped. Read it
	// only through snapshot: the atomic store of snapped → its load is the
	// happens-before edge, and it needs no box of its own.
	snapState seqspec.State
	snapped   atomic.Bool
}

// newEntry builds pid's seq-th announcement of op in a fresh Entry,
// copying op's arguments into it (see Entry): the only allocation an
// announcement makes unless op has more than two arguments. An op without
// arguments keeps its Args as given.
func newEntry(pid int, seq int64, op seqspec.Op) *Entry {
	e := &Entry{Pid: pid, Seq: seq, Op: op}
	if n := len(op.Args); n > len(e.argv) {
		e.Op.Args = append([]int64(nil), op.Args...)
	} else if n > 0 {
		copy(e.argv[:], op.Args)
		e.Op.Args = e.argv[:n:n]
	}
	return e
}

// snapshot returns the entry's stored snapshot, or nil until it is set.
func (e *Entry) snapshot() seqspec.State {
	if !e.snapped.Load() {
		return nil
	}
	return e.snapState
}

// String renders the entry identity.
func (e *Entry) String() string {
	return fmt.Sprintf("P%d#%d:%s", e.Pid, e.Seq, e.Op)
}

// Node is a cons cell of the shared log list. Lists grow by prepending;
// Entry and Len never change after creation. Len is the entry's 1-based
// position in the log (the all-time length of the list it heads), which
// makes it a stable index even after truncation.
//
// The rest pointer is one-shot mutable: it holds the creation-time tail
// until the log GC's anchor swing (see gc.go) severs it to nil, retiring
// everything below so Go's collector can reclaim the dead tail. The
// low-water-mark protocol guarantees no replay can be walking below a
// severed point, so readers only ever see either the full tail or the
// anchor cut — never a partially retired list.
type Node struct {
	Entry *Entry
	Len   int // 1-based log position: number of entries ever at or below this one
	rest  atomic.Pointer[Node]
}

// Rest returns the list below this cell: its creation-time tail, or nil
// once the log GC has severed it (or the cell heads the log's oldest entry).
func (n *Node) Rest() *Node { return n.rest.Load() }

// sever cuts the list below this cell, retiring the tail. Callers must hold
// the low-water-mark guarantee that no walk is at or below the tail.
func (n *Node) sever() { n.rest.Store(nil) }

// Cons prepends entry e to list rest in a fresh cell. ConsFAC's proposal
// lists need it; the swap fetch-and-cons threads e's own cell instead.
func Cons(e *Entry, rest *Node) *Node { return link(new(Node), e, rest) }

// link fills cell n as e's cons onto rest and returns it. Len is fixed in
// one whole-struct assignment — the cell's identity fields are complete
// before it can escape, and only the rest pointer is (one-shot) mutable
// afterwards.
func link(n *Node, e *Entry, rest *Node) *Node {
	length := 1
	if rest != nil {
		length = rest.Len + 1
	}
	*n = Node{Entry: e, Len: length}
	n.rest.Store(rest)
	return n
}

// Entries returns the list's entries, newest first: the full history, or the
// surviving prefix once the log GC has retired the tail.
func Entries(l *Node) []*Entry {
	var out []*Entry
	for n := l; n != nil; n = n.Rest() {
		out = append(out, n.Entry)
	}
	return out
}

// FetchAndCons is the destructive list operation of Section 4.1: atomically
// (1) place an item at the head of the shared list and (2) return the list
// of items that follow it. Implementations must be wait-free and
// linearizable; each process calls it sequentially.
type FetchAndCons interface {
	// FetchAndCons threads e onto the list and returns the prior list (the
	// entries that precede e in linearization order, newest first).
	//
	//wf:bounded contract: implementations must complete in O(n) of the caller's own steps (Corollary 27); demo harnesses that stall on purpose opt out with wf:blocking and answer to their own drivers
	//wf:steps n
	FetchAndCons(pid int, e *Entry) *Node

	// Observe returns a decided list: a prefix of the object's linearization
	// order (newest first) that contains every entry whose FetchAndCons call
	// returned before Observe was invoked, and no entry whose position in
	// the order is still undecided. The load that captures the list is the
	// linearization point of any read-only operation served from it, so
	// Observe must be wait-free and must not consume a cons. May be called
	// concurrently from any goroutine. Returns nil while the log is empty.
	//
	//wf:bounded contract: implementations must answer from already-decided state in O(n) loads without consuming a cons; stalling demo harnesses opt out with wf:blocking
	//wf:steps n
	Observe() *Node
}

// view materializes the coherence notion of Lemmas 24/25: the view of a
// fetch-and-cons is its argument prepended to its result.

// View is a value snapshot of a list for property tests: entry pointers,
// newest first.
type View []*Entry

// NewView builds the view of a fetch-and-cons call from its argument and
// result.
func NewView(e *Entry, result *Node) View {
	v := View{e}
	return append(v, Entries(result)...)
}

// IsSuffixOf reports whether v is a suffix of w.
func (v View) IsSuffixOf(w View) bool {
	if len(v) > len(w) {
		return false
	}
	off := len(w) - len(v)
	for i := range v {
		if w[off+i] != v[i] {
			return false
		}
	}
	return true
}

// Coherent reports whether one of v, w is a suffix of the other (Lemma 24).
func Coherent(v, w View) bool {
	return v.IsSuffixOf(w) || w.IsSuffixOf(v)
}
