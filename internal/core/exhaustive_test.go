package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"waitfree/internal/seqspec"
)

// Exhaustive interleaving verification of the universal construction.
//
// The goroutine tests sample schedules; this harness enumerates ALL of them
// at the construction's true step granularity for small cases. An operation
// decomposes into the steps that touch shared state:
//
//	cons      — thread the entry (one atomic fetch-and-cons)
//	walk      — read one predecessor's snapshot slot (atomic load)
//	store     — compute the response, store own post-state snapshot
//
// Because the cons order fixes the linearization order, every operation's
// correct response is determined the moment it is consed; the harness
// computes that ground truth eagerly and fails the instant any interleaving
// of snapshot reads and stores yields a different response or stores a
// wrong snapshot. This is exactly the subtle surface of Section 4.1: a
// replayer may observe any prefix of the snapshot stores, in any order.
type exhaustiveSim struct {
	t      *testing.T
	obj    seqspec.Object
	n      int
	script [][]seqspec.Op // per-process operation sequences

	head    *Node
	truth   seqspec.State     // ground-truth state in cons order
	expect  map[*Entry]int64  // expected response per consed entry
	preKey  map[*Entry]string // expected pre-state key per entry
	postKey map[*Entry]string // expected post-state key per entry
	procs   []simProc
	visited map[string]bool
	keyBuf  []byte
	trace   []simStep
	configs int
}

type simProc struct {
	opIdx   int
	phase   int // 0 ready, 1 walking, 2 storing
	entry   *Entry
	ownNode *Node
	pos     *Node
	pending []*Entry
	base    seqspec.State // set when the walk ends
}

// simStep is one step of the current schedule; the trace is rendered only
// when a check fails.
type simStep struct {
	p    int
	kind string
	op   *seqspec.Op // the consed op, for a cons step
}

func (s *exhaustiveSim) traceString() string {
	steps := make([]string, len(s.trace))
	for i, st := range s.trace {
		steps[i] = fmt.Sprintf("P%d %s", st.p, st.kind)
		if st.op != nil {
			steps[i] += fmt.Sprintf(" %s", *st.op)
		}
	}
	return strings.Join(steps, "; ")
}

const (
	phReady = iota
	phWalking
	phStoring
	phDone
)

func runExhaustive(t *testing.T, obj seqspec.Object, script [][]seqspec.Op) int {
	sim := &exhaustiveSim{
		t:       t,
		obj:     obj,
		n:       len(script),
		script:  script,
		truth:   obj.Init(),
		expect:  make(map[*Entry]int64),
		preKey:  make(map[*Entry]string),
		postKey: make(map[*Entry]string),
		procs:   make([]simProc, len(script)),
		visited: make(map[string]bool),
	}
	sim.explore()
	return sim.configs
}

// key renders the configuration into s.keyBuf: the list (pid.seq and
// whether the snapshot is stored, per node) and each process's position.
// It appends with strconv rather than fmt; the search visits millions of
// configurations and the key is most of its cost.
func (s *exhaustiveSim) key() []byte {
	b := s.keyBuf[:0]
	for n := s.head; n != nil; n = n.Rest() {
		b = strconv.AppendInt(b, int64(n.Entry.Pid), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, n.Entry.Seq, 10)
		if n.Entry.snapshot() != nil {
			b = append(b, 's')
		}
		b = append(b, ',')
	}
	b = append(b, '#')
	for p := range s.procs {
		pr := &s.procs[p]
		pos := -1
		if pr.pos != nil {
			pos = pr.pos.Len
		}
		b = strconv.AppendInt(b, int64(pr.opIdx), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(pr.phase), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(pos), 10)
		b = append(b, ';')
	}
	s.keyBuf = b
	return b
}

func (s *exhaustiveSim) explore() {
	k := s.key()
	if s.visited[string(k)] {
		return
	}
	s.visited[string(k)] = true
	s.configs++

	for p := 0; p < s.n; p++ {
		pr := &s.procs[p]
		switch {
		case pr.phase == phReady && pr.opIdx < len(s.script[p]):
			s.stepCons(p)
		case pr.phase == phWalking:
			s.stepWalk(p)
		case pr.phase == phStoring:
			s.stepStore(p)
		}
	}
}

// stepCons threads p's next entry and fixes its ground-truth response.
func (s *exhaustiveSim) stepCons(p int) {
	pr := &s.procs[p]
	op := s.script[p][pr.opIdx]
	e := &Entry{Pid: p, Seq: int64(pr.opIdx + 1), Op: op}

	prevHead := s.head
	node := Cons(e, s.head)
	s.head = node

	prevTruth := s.truth.Clone()
	s.preKey[e] = s.truth.Key()
	s.expect[e] = s.truth.Apply(op)
	s.postKey[e] = s.truth.Key()

	prev := *pr
	pr.phase, pr.entry, pr.ownNode, pr.pos, pr.pending, pr.base =
		phWalking, e, node, node.Rest(), nil, nil
	s.trace = append(s.trace, simStep{p, "cons", &e.Op})

	s.explore()

	s.trace = s.trace[:len(s.trace)-1]
	*pr = prev
	s.truth = prevTruth
	delete(s.preKey, e)
	delete(s.postKey, e)
	delete(s.expect, e)
	s.head = prevHead
}

// stepWalk advances p one node down the list, loading that node's snapshot
// slot — the racy read the harness exists to exercise.
func (s *exhaustiveSim) stepWalk(p int) {
	pr := &s.procs[p]
	prev := *pr
	prevPending := len(pr.pending)

	if pr.pos == nil {
		pr.base = s.obj.Init()
		pr.phase = phStoring
	} else if snap := pr.pos.Entry.snapshot(); snap != nil {
		pr.base = snap.Clone() // the post-state of that entry: nothing to apply
		pr.phase = phStoring
	} else {
		pr.pending = append(pr.pending, pr.pos.Entry)
		pr.pos = pr.pos.Rest()
	}
	s.trace = append(s.trace, simStep{p, "walk", nil})

	s.explore()

	s.trace = s.trace[:len(s.trace)-1]
	pr.pending = pr.pending[:prevPending]
	pr.phase, pr.pos, pr.base = prev.phase, prev.pos, prev.base
}

// stepStore computes p's pre-state and response, verifies both against the
// cons-order ground truth, then stores the post-state as the snapshot —
// uncloned, as the construction does — and verifies that state too.
func (s *exhaustiveSim) stepStore(p int) {
	pr := &s.procs[p]
	state := pr.base.Clone()
	for i := len(pr.pending) - 1; i >= 0; i-- {
		state.Apply(pr.pending[i].Op)
	}
	if got, want := state.Key(), s.preKey[pr.entry]; got != want {
		s.t.Fatalf("P%d op %d: reconstructed pre-state %q, ground truth %q\ntrace: %s",
			p, pr.opIdx, got, want, s.traceString())
	}
	if got, want := state.Apply(pr.entry.Op), s.expect[pr.entry]; got != want {
		s.t.Fatalf("P%d op %d (%s): response %d, ground truth %d\ntrace: %s",
			p, pr.opIdx, pr.entry.Op, got, want, s.traceString())
	}
	if got, want := state.Key(), s.postKey[pr.entry]; got != want {
		s.t.Fatalf("P%d op %d: stored post-state %q, ground truth %q\ntrace: %s",
			p, pr.opIdx, got, want, s.traceString())
	}
	pr.entry.snapState = state
	pr.entry.snapped.Store(true)

	prev := *pr
	pr.opIdx++
	pr.phase = phReady
	pr.entry, pr.ownNode, pr.pos, pr.pending, pr.base = nil, nil, nil, nil, nil
	s.trace = append(s.trace, simStep{p, "store+respond", nil})

	s.explore()

	s.trace = s.trace[:len(s.trace)-1]
	*pr = prev
	pr.entry.snapped.Store(false)
	pr.entry.snapState = nil
}

// TestExhaustiveUniversalCounter verifies every interleaving of the
// construction's shared-state steps for two processes and a counter.
func TestExhaustiveUniversalCounter(t *testing.T) {
	inc := seqspec.Op{Kind: "inc"}
	add := seqspec.Op{Kind: "add", Args: []int64{10}}
	configs := runExhaustive(t, seqspec.Counter{}, [][]seqspec.Op{
		{inc, add, inc},
		{add, inc, add},
	})
	t.Logf("explored %d configurations", configs)
}

// TestExhaustiveUniversalQueue does the same over a queue, whose responses
// are order-sensitive in both directions (enq affects later deqs).
func TestExhaustiveUniversalQueue(t *testing.T) {
	enq := func(v int64) seqspec.Op { return seqspec.Op{Kind: "enq", Args: []int64{v}} }
	deq := seqspec.Op{Kind: "deq"}
	configs := runExhaustive(t, seqspec.Queue{}, [][]seqspec.Op{
		{enq(1), deq, enq(2)},
		{deq, enq(3), deq},
	})
	t.Logf("explored %d configurations", configs)
}

// TestExhaustiveUniversalThreeProcs pushes to three processes with three
// ops each over a queue.
func TestExhaustiveUniversalThreeProcs(t *testing.T) {
	enq := func(v int64) seqspec.Op { return seqspec.Op{Kind: "enq", Args: []int64{v}} }
	deq := seqspec.Op{Kind: "deq"}
	configs := runExhaustive(t, seqspec.Queue{}, [][]seqspec.Op{
		{enq(1), deq, enq(4)},
		{enq(2), deq, deq},
		{deq, enq(3), deq},
	})
	t.Logf("explored %d configurations", configs)
}

// TestExhaustiveUniversalFourProcs: four processes, two ops each, over a
// bank (multi-word state, conditional transfers).
func TestExhaustiveUniversalFourProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("larger exploration; skipped in -short mode")
	}
	dep := func(a, v int64) seqspec.Op { return seqspec.Op{Kind: "deposit", Args: []int64{a, v}} }
	xfer := func(a, b, v int64) seqspec.Op { return seqspec.Op{Kind: "transfer", Args: []int64{a, b, v}} }
	configs := runExhaustive(t, seqspec.Bank{Accounts: 2}, [][]seqspec.Op{
		{dep(0, 5), xfer(0, 1, 3)},
		{xfer(0, 1, 4), dep(1, 2)},
		{xfer(1, 0, 1), xfer(0, 1, 2)},
		{dep(0, 1), xfer(1, 0, 6)},
	})
	t.Logf("explored %d configurations", configs)
}
