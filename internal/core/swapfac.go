package core

import (
	"sync"
	"sync/atomic"

	"waitfree/internal/wfstats"
)

// SwapFAC is the constant-time fetch-and-cons of Figures 4-3/4-4: a single
// memory-to-memory swap of the list anchor with the new cell's cdr threads
// the cell and captures the prior list in one atomic step.
//
// Substitution note: the two-pointer memory-to-memory swap is a hardware
// primitive in the paper (consensus number infinity, Theorem 16) that no
// mainstream ISA provides; as with registers.Memory, the primitive is
// simulated by a mutex gate whose critical section is exactly the swap.
// Each FetchAndCons is one primitive step, so client wait-freedom is
// preserved in the paper's cost model.
//
// The anchor is an atomic pointer mutated only inside the gate, so readers
// can observe the decided list with one load and no gate at all: a swap
// decides an entry's position the instant it executes, hence every list the
// anchor ever holds is decided in full.
type SwapFAC struct {
	mu   sync.Mutex
	head atomic.Pointer[Node]

	// conses and observes are nil (no-op) until Instrument.
	conses   *wfstats.Counter
	observes *wfstats.Counter
}

// NewSwapFAC builds an empty list.
func NewSwapFAC() *SwapFAC { return &SwapFAC{} }

// Instrument records the fetch-and-cons's metrics (swapfac.cons — one
// simulated swap each — and swapfac.observe) into reg. Call before the
// object is used concurrently; nil reg leaves the no-op mode in place.
func (f *SwapFAC) Instrument(reg *wfstats.Registry) {
	f.conses = reg.Counter("swapfac.cons")
	f.observes = reg.Counter("swapfac.observe")
}

var _ FetchAndCons = (*SwapFAC)(nil)

// FetchAndCons implements FetchAndCons in one (simulated) memory-to-memory
// swap: anchor <-> cell.cdr. The cell is e's own (Entry.cell), so the cons
// allocates nothing; each entry must be consed at most once.
//
//wf:bounded one simulated primitive step: the gate encloses exactly the constant-time anchor/cdr exchange (Theorem 16 substitution, see the type doc)
func (f *SwapFAC) FetchAndCons(pid int, e *Entry) *Node {
	f.conses.Inc()

	f.mu.Lock() // begin simulated atomic swap(anchor, cell.cdr)
	prior := f.head.Load()
	f.head.Store(link(&e.cell, e, prior))
	f.mu.Unlock() // end simulated atomic swap

	return prior
}

// Observe implements FetchAndCons: one atomic load of the anchor. Any entry
// whose swap preceded the load is in the returned list, and every entry in
// it was positioned by its swap, so the list is a decided prefix.
func (f *SwapFAC) Observe() *Node {
	f.observes.Inc()
	return f.head.Load()
}

// Head returns the current list head (for tests and inspection).
func (f *SwapFAC) Head() *Node { return f.head.Load() }
