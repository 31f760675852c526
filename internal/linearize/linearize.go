// Package linearize records concurrent histories and decides
// linearizability against a sequential specification.
//
// Linearizability (Section 2.3, after Herlihy & Wing) is the paper's
// correctness condition: every concurrent history must be equivalent to
// some sequential history that respects real-time order — each operation
// appears to take effect atomically between its invocation and response.
// The checker is the classic Wing–Gould search: pick a minimal operation
// (one not really-time-preceded by any other pending operation), apply it to
// the sequential specification, match the response, recurse; memoize on the
// (remaining-set, state) pair. An event may also name a program-order
// predecessor (Event.After), which the search linearizes first: the
// promise of an object whose clients pipeline, where a client's read may
// overlap its own earlier write in real time yet must see it.
//
//wf:blocking test instrumentation: history recording takes a lock and the checker is an offline search, not a protocol
package linearize

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"waitfree/internal/seqspec"
)

// Event is one completed operation in a concurrent history.
type Event struct {
	Pid    int
	Op     seqspec.Op
	Resp   int64
	Invoke int64 // logical invocation timestamp
	Return int64 // logical response timestamp
	// After, when nonzero, is the Invoke stamp of the event's program-order
	// predecessor in the same history: an event that takes effect first
	// even where the two overlap in real time. The stamp must name exactly
	// one event (a Recorder's stamps are unique).
	After int64
}

// String renders the event.
func (e Event) String() string {
	s := fmt.Sprintf("P%d %s=%d [%d,%d]", e.Pid, e.Op, e.Resp, e.Invoke, e.Return)
	if e.After != 0 {
		s += fmt.Sprintf(" after %d", e.After)
	}
	return s
}

// Recorder captures a concurrent history with a logical clock. It is safe
// for concurrent use.
type Recorder struct {
	clock  atomic.Int64
	mu     sync.Mutex
	events []Event
}

// Invoke stamps the start of an operation; pass the result to Complete.
func (r *Recorder) Invoke() int64 { return r.clock.Add(1) }

// Complete records a finished operation.
func (r *Recorder) Complete(pid int, op seqspec.Op, resp int64, invokeTS int64) {
	r.CompleteAfter(pid, op, resp, invokeTS, 0)
}

// CompleteAfter records a finished operation whose program-order
// predecessor is the operation invoked at after (see Event.After).
func (r *Recorder) CompleteAfter(pid int, op seqspec.Op, resp int64, invokeTS, after int64) {
	ret := r.clock.Add(1)
	r.mu.Lock()
	r.events = append(r.events, Event{Pid: pid, Op: op, Resp: resp, Invoke: invokeTS, Return: ret, After: after})
	r.mu.Unlock()
}

// History returns the recorded events sorted by invocation time.
func (r *Recorder) History() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Event(nil), r.events...)
	sort.Slice(out, func(i, j int) bool { return out[i].Invoke < out[j].Invoke })
	return out
}

// Result reports a linearizability check.
type Result struct {
	OK bool
	// Order, when OK, is one witnessing linearization (indices into the
	// checked history).
	Order []int
	// States is the number of distinct search states visited.
	States int
}

// Check decides whether history h is linearizable with respect to obj,
// starting from obj.Init().
func Check(obj seqspec.Object, h []Event) Result {
	return CheckWithPending(obj, h, nil)
}

// CheckWithPending decides linearizability of a history that also contains
// pending invocations — operations that were invoked but never returned
// (crashed processes). Per the linearizability definition, each pending
// operation either did not take effect or took effect at some point after
// its invocation; its response is unconstrained. The checker may therefore
// insert each pending op anywhere consistent with real time, or drop it.
func CheckWithPending(obj seqspec.Object, h []Event, pending []Event) Result {
	events := append([]Event(nil), h...)
	sort.Slice(events, func(i, j int) bool { return events[i].Invoke < events[j].Invoke })
	nc := len(events)
	events = append(events, pending...)
	c := &checker{
		events:    events,
		completed: nc,
		pred:      predecessors(events),
		memo:      make(map[string]bool),
	}
	// Only completed events are obligations; pending ones are optional, so
	// the remaining-set tracks completed events and a separate set tracks
	// which pending events were already used.
	remaining := newBitset(len(events))
	for i := 0; i < nc; i++ {
		remaining.set(i)
	}
	order := make([]int, 0, len(events))
	ok := c.search(remaining, obj.Init(), &order)
	res := Result{OK: ok, States: len(c.memo)}
	if ok {
		res.Order = order
	}
	return res
}

type checker struct {
	events    []Event
	completed int   // events[:completed] must linearize; the rest may
	pred      []int // pred[i]: the index of event i's After, -1 for none
	memo      map[string]bool
}

// predecessors resolves each event's After stamp to an index into events;
// it panics on a stamp that names no event or more than one.
func predecessors(events []Event) []int {
	byInvoke := make(map[int64]int, len(events))
	for i, e := range events {
		if _, dup := byInvoke[e.Invoke]; dup {
			byInvoke[e.Invoke] = -1
		} else {
			byInvoke[e.Invoke] = i
		}
	}
	pred := make([]int, len(events))
	for i, e := range events {
		pred[i] = -1
		if e.After == 0 {
			continue
		}
		p, ok := byInvoke[e.After]
		if !ok || p < 0 {
			panic(fmt.Sprintf("linearize: %s: After names no single event invoked at %d", e, e.After))
		}
		pred[i] = p
	}
	return pred
}

// search tries to linearize all remaining completed events from state,
// optionally interleaving unused pending events. order accumulates the
// witnessing sequence. For pending events the remaining-set bit is reused
// inverted: a set bit above c.completed means "already used".
func (c *checker) search(remaining *bitset, state seqspec.State, order *[]int) bool {
	done := true
	for i := 0; i < c.completed; i++ {
		if remaining.get(i) {
			done = false
			break
		}
	}
	if done {
		return true // leftover pending ops simply did not take effect
	}
	key := remaining.key() + "#" + state.Key()
	if c.memo[key] {
		return false // known dead end
	}

	// An event e may be linearized next iff no remaining *completed* event
	// returned before e was invoked.
	minOtherReturn := func(skip int) int64 {
		min := int64(1) << 62
		for i := 0; i < c.completed; i++ {
			if i == skip || !remaining.get(i) {
				continue
			}
			if c.events[i].Return < min {
				min = c.events[i].Return
			}
		}
		return min
	}
	for i := 0; i < len(c.events); i++ {
		pending := i >= c.completed
		if pending {
			if remaining.get(i) {
				continue // this pending op was already used
			}
		} else if !remaining.get(i) {
			continue
		}
		e := c.events[i]
		if e.Invoke > minOtherReturn(i) {
			continue // some remaining completed op really precedes e
		}
		// A set bit marks a completed event still to place, a pending one
		// already placed.
		if p := c.pred[i]; p >= 0 && remaining.get(p) != (p >= c.completed) {
			continue // e's program-order predecessor is not linearized yet
		}
		next := state.Clone()
		resp := next.Apply(e.Op)
		if !pending && resp != e.Resp {
			continue // response would not match (pending responses are free)
		}
		if pending {
			remaining.set(i)
		} else {
			remaining.clear(i)
		}
		*order = append(*order, i)
		if c.search(remaining, next, order) {
			return true
		}
		*order = (*order)[:len(*order)-1]
		if pending {
			remaining.clear(i)
		} else {
			remaining.set(i)
		}
	}
	c.memo[key] = true
	return false
}

// bitset is a small dynamic bitset keyed for memoization.
type bitset struct {
	words []uint64
	n     int
}

func newBitset(n int) *bitset {
	return &bitset{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitset) set(i int)      { b.words[i/64] |= 1 << uint(i%64) }
func (b *bitset) clear(i int)    { b.words[i/64] &^= 1 << uint(i%64) }
func (b *bitset) get(i int) bool { return b.words[i/64]&(1<<uint(i%64)) != 0 }

func (b *bitset) empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b *bitset) key() string {
	var sb strings.Builder
	for _, w := range b.words {
		sb.WriteString(strconv.FormatUint(w, 16))
		sb.WriteByte('.')
	}
	return sb.String()
}
