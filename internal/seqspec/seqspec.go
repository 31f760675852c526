// Package seqspec defines deterministic sequential objects: the inputs to
// the paper's universal construction (Section 4.1).
//
// Any sequential object whose operations are deterministic and total defines
// eval (state after a sequence of operations) and apply (response of an
// invocation in a state); the universal construction replays logged
// invocations through these functions. Non-deterministic objects are handled
// by choosing a deterministic refinement, as the paper prescribes (e.g. a
// set with a non-deterministic remove becomes remove-minimum).
//
// States are mutable for efficiency, with explicit Clone for the snapshot
// (strongly-wait-free) variant and Key for the linearizability checker's
// memoization. KV, the object the server and every benchmark workload
// serve, keeps its state in a persistent hash trie whose root is an array
// of 32 child pointers held in the state, so its Clone is one fixed-size
// copy and its Apply walks at most 13 levels of at most 32 slots; the
// other objects' Clones still copy their whole state. A trie slot is 24
// bytes: a child is one pointer, and its node's length is the popcount of
// the bitmap beside it, in the parent slot or, for a level-1 node, in a
// header slot at the node's front (kvNode, this package's one use of
// unsafe). A child node is never edited once the call that built it
// returns: only an edit Window edits children in place, and only the ones
// it built itself.
//
//wf:waitfree
package seqspec

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Op is an operation invocation: a kind and its arguments. A caller may
// reuse its Args buffer once an invocation returns: the universal
// construction's log entry keeps its own copy of the words it announced
// (internal/core's newEntry), and the wire decoder can decode into a
// caller's buffer.
type Op struct {
	Kind string
	Args []int64
}

// String renders the op compactly.
func (o Op) String() string {
	parts := make([]string, len(o.Args))
	for i, a := range o.Args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	return o.Kind + "(" + strings.Join(parts, ",") + ")"
}

// Arg returns argument i, or 0 if absent (operations are total; missing
// arguments default rather than fault).
func (o Op) Arg(i int) int64 {
	if i >= len(o.Args) {
		return 0
	}
	return o.Args[i]
}

// Empty is the total-operation response for "nothing there" (deq of an
// empty queue, get of a missing key, ...), per Section 2.2.
const Empty int64 = -1 << 62

// Object is a deterministic sequential object type.
// The //wf:steps 1 contracts below declare the paper's unit-cost model:
// the universal construction's step bounds count sequential-object calls as
// single steps, so an implementation whose Apply or Clone is super-constant
// scales every certified bound by that factor. KV honours the contract: its
// Clone is one struct copy of a fixed 280 bytes (the root's 32 child
// pointers, a length and an edit counter) and its Apply costs at most kvMaxDepth (13)
// levels × 32 slots, independent of the key count. Set, Queue, Stack, PQueue, List and Bank
// clone in time linear in their size.
type Object interface {
	// Name identifies the type.
	//
	//wf:steps 1
	Name() string
	// Init returns a fresh initial state.
	//
	//wf:steps 1
	Init() State
	// ReadOnly reports whether op never mutates any state: Apply(op) must
	// return the same response and leave the state bit-identical no matter
	// when it runs. The universal construction serves such operations on a
	// read fast path — replaying a decided log prefix without consuming a
	// cons or storing a snapshot — and may apply them to shared,
	// no-longer-cloned states, so a classification that admits a mutating
	// op is a data race, not just a performance bug.
	//
	//wf:steps 1
	ReadOnly(op Op) bool
}

// State is a mutable sequential-object state.
type State interface {
	// Apply executes op, mutating the state and returning the response.
	//
	// Determinism contract: Apply must be deterministic and total —
	// a pure function of the state *value* and the op, never of the replica
	// identity, iteration order of an unordered container, randomness, or
	// time. The universal construction depends on this: a replay that stops
	// at another process's snapshot continues from the state that process
	// computed, and every process that replays a decided log prefix must
	// reach the same state and responses as the one that stored it. Two
	// replicas replaying the same prefix must therefore compute
	// bit-identical responses and states (the cross-spec determinism test
	// in contract_test.go enforces both).
	//
	//wf:steps 1
	Apply(op Op) int64
	// Clone returns an independent deep copy.
	//
	//wf:steps 1
	Clone() State
	// Key returns a canonical encoding for memoization and equality.
	//
	//wf:steps 1
	Key() string
}

// ApplyAll applies ops to s in order and writes op i's response to out[i]
// (out must have room for len(ops)): the replay step of the universal
// construction, where one executor applies the decided entries above a
// snapshot, and its own operation, to a single reconstructed state.
//
// Two or more ops share one edit Window, closed before ApplyAll returns;
// a single op has nothing to share. Every op goes through State.Apply,
// whose //wf:steps 1 contract covers the window's puts too. The [n + 1]
// bracket below is the construction's. Two blocking callers in
// internal/server sit outside the certified closure: a durable server's
// committer applies each shard's run of a drain, up to drainCap ops, in
// one ApplyAll on a clone of the shard's published state, and boot
// recovery holds a Window of its own open across a whole log tail.
func ApplyAll(s State, ops []Op, out []int64) {
	if len(ops) > 1 {
		defer OpenWindow(s).Close()
	}
	//wf:bounded [n + 1] one Apply per op: the universal construction passes one replay's pending entries (at most one per process, Section 4.1) plus its own op
	for i, op := range ops {
		out[i] = s.Apply(op)
	}
}

// Window is one open edit window on a state. Inside it a KV state edits in
// place every trie node the same window built, and copies every other node
// as Apply does, so a window of m puts copies each node their paths share
// once instead of m times; every other object just applies op by op. The
// state must not be cloned, shared or applied to outside the window until
// Close: only then are its nodes immutable again.
type Window struct{ s State }

// OpenWindow opens a Window on s.
func OpenWindow(s State) Window {
	if kv, ok := s.(*kvState); ok {
		kv.openWindow()
	}
	return Window{s}
}

// Apply applies op to the window's state and returns its response.
func (w Window) Apply(op Op) int64 { return w.s.Apply(op) }

// State is the state the window edits.
func (w Window) State() State { return w.s }

// Close ends the window.
func (w Window) Close() {
	if kv, ok := w.s.(*kvState); ok {
		kv.closeWindow()
	}
}

// --- Register ---

// Register is a single read/write register; write returns the old value.
type Register struct{ InitVal int64 }

// Name implements Object.
func (Register) Name() string { return "register" }

// Init implements Object.
func (r Register) Init() State { s := registerState(r.InitVal); return &s }

// ReadOnly implements Object.
func (Register) ReadOnly(op Op) bool { return op.Kind == "read" }

type registerState int64

func (s *registerState) Apply(op Op) int64 {
	switch op.Kind {
	case "read":
		return int64(*s)
	case "write":
		old := int64(*s)
		*s = registerState(op.Arg(0))
		return old
	}
	panic("seqspec: register: unknown op " + op.Kind)
}

func (s *registerState) Clone() State { c := *s; return &c }
func (s *registerState) Key() string  { return strconv.FormatInt(int64(*s), 10) }

// --- Counter ---

// Counter supports inc, add(d), and get; inc and add return the old value.
type Counter struct{}

// Name implements Object.
func (Counter) Name() string { return "counter" }

// Init implements Object.
func (Counter) Init() State { s := counterState(0); return &s }

// ReadOnly implements Object.
func (Counter) ReadOnly(op Op) bool { return op.Kind == "get" }

type counterState int64

func (s *counterState) Apply(op Op) int64 {
	switch op.Kind {
	case "get":
		return int64(*s)
	case "inc":
		old := int64(*s)
		*s++
		return old
	case "add":
		old := int64(*s)
		*s += counterState(op.Arg(0))
		return old
	}
	panic("seqspec: counter: unknown op " + op.Kind)
}

func (s *counterState) Clone() State { c := *s; return &c }
func (s *counterState) Key() string  { return strconv.FormatInt(int64(*s), 10) }

// --- FIFO queue ---

// Queue is a FIFO queue: enq(v) and a total deq returning Empty when empty.
type Queue struct{}

// Name implements Object.
func (Queue) Name() string { return "queue" }

// Init implements Object.
func (Queue) Init() State { return &queueState{} }

// ReadOnly implements Object.
func (Queue) ReadOnly(op Op) bool { return op.Kind == "peek" || op.Kind == "len" }

type queueState struct{ items []int64 }

func (s *queueState) Apply(op Op) int64 {
	switch op.Kind {
	case "enq":
		s.items = append(s.items, op.Arg(0))
		return 0
	case "deq":
		if len(s.items) == 0 {
			return Empty
		}
		v := s.items[0]
		s.items = append([]int64(nil), s.items[1:]...)
		return v
	case "peek":
		if len(s.items) == 0 {
			return Empty
		}
		return s.items[0]
	case "len":
		return int64(len(s.items))
	}
	panic("seqspec: queue: unknown op " + op.Kind)
}

func (s *queueState) Clone() State {
	return &queueState{items: append([]int64(nil), s.items...)}
}

func (s *queueState) Key() string { return encodeInts(s.items) }

// --- Stack ---

// Stack is a LIFO stack: push(v) and a total pop returning Empty when empty.
type Stack struct{}

// Name implements Object.
func (Stack) Name() string { return "stack" }

// Init implements Object.
func (Stack) Init() State { return &stackState{} }

// ReadOnly implements Object.
func (Stack) ReadOnly(op Op) bool { return op.Kind == "len" }

type stackState struct{ items []int64 }

func (s *stackState) Apply(op Op) int64 {
	switch op.Kind {
	case "push":
		s.items = append(s.items, op.Arg(0))
		return 0
	case "pop":
		if len(s.items) == 0 {
			return Empty
		}
		v := s.items[len(s.items)-1]
		s.items = s.items[:len(s.items)-1]
		return v
	case "len":
		return int64(len(s.items))
	}
	panic("seqspec: stack: unknown op " + op.Kind)
}

func (s *stackState) Clone() State {
	return &stackState{items: append([]int64(nil), s.items...)}
}

func (s *stackState) Key() string { return encodeInts(s.items) }

// --- Set (deterministic refinement: remove-min) ---

// Set is a set of int64 with insert, contains, and the deterministic
// refinement of non-deterministic remove: removeMin (Section 4.1 discusses
// exactly this refinement).
type Set struct{}

// Name implements Object.
func (Set) Name() string { return "set" }

// Init implements Object.
func (Set) Init() State { return &setState{m: make(map[int64]bool)} }

// ReadOnly implements Object.
func (Set) ReadOnly(op Op) bool { return op.Kind == "contains" || op.Kind == "len" }

type setState struct{ m map[int64]bool }

func (s *setState) Apply(op Op) int64 {
	switch op.Kind {
	case "insert":
		v := op.Arg(0)
		if s.m[v] {
			return 0
		}
		s.m[v] = true
		return 1
	case "contains":
		if s.m[op.Arg(0)] {
			return 1
		}
		return 0
	case "removeMin":
		if len(s.m) == 0 {
			return Empty
		}
		min := int64(0)
		started := false
		for v := range s.m {
			if !started || v < min {
				min, started = v, true
			}
		}
		delete(s.m, min)
		return min
	case "len":
		return int64(len(s.m))
	}
	panic("seqspec: set: unknown op " + op.Kind)
}

func (s *setState) Clone() State {
	m := make(map[int64]bool, len(s.m))
	for k := range s.m {
		m[k] = true
	}
	return &setState{m: m}
}

func (s *setState) Key() string {
	vs := make([]int64, 0, len(s.m))
	for v := range s.m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return encodeInts(vs)
}

// --- Priority queue ---

// PQueue is a min-priority queue: insert(v) and a total deleteMin.
type PQueue struct{}

// Name implements Object.
func (PQueue) Name() string { return "pqueue" }

// Init implements Object.
func (PQueue) Init() State { return &pqueueState{} }

// ReadOnly implements Object.
func (PQueue) ReadOnly(op Op) bool { return op.Kind == "min" || op.Kind == "len" }

type pqueueState struct{ items []int64 } // kept sorted ascending

func (s *pqueueState) Apply(op Op) int64 {
	switch op.Kind {
	case "insert":
		v := op.Arg(0)
		i := sort.Search(len(s.items), func(i int) bool { return s.items[i] >= v })
		s.items = append(s.items, 0)
		copy(s.items[i+1:], s.items[i:])
		s.items[i] = v
		return 0
	case "deleteMin":
		if len(s.items) == 0 {
			return Empty
		}
		v := s.items[0]
		s.items = append([]int64(nil), s.items[1:]...)
		return v
	case "min":
		if len(s.items) == 0 {
			return Empty
		}
		return s.items[0]
	case "len":
		return int64(len(s.items))
	}
	panic("seqspec: pqueue: unknown op " + op.Kind)
}

func (s *pqueueState) Clone() State {
	return &pqueueState{items: append([]int64(nil), s.items...)}
}

func (s *pqueueState) Key() string { return encodeInts(s.items) }

// --- List (cons cells: fetch-and-cons as a sequential spec) ---

// List is the sequential list object whose fetch-and-cons the universal
// construction bootstraps from: cons prepends and returns the length of the
// list that followed (a compact stand-in for "the list of items that follow
// the new item"); head and nth inspect it.
type List struct{}

// Name implements Object.
func (List) Name() string { return "list" }

// Init implements Object.
func (List) Init() State { return &listState{} }

// ReadOnly implements Object.
func (List) ReadOnly(op Op) bool {
	return op.Kind == "head" || op.Kind == "nth" || op.Kind == "len"
}

type listState struct{ items []int64 } // head first

func (s *listState) Apply(op Op) int64 {
	switch op.Kind {
	case "cons":
		prior := int64(len(s.items))
		s.items = append([]int64{op.Arg(0)}, s.items...)
		return prior
	case "head":
		if len(s.items) == 0 {
			return Empty
		}
		return s.items[0]
	case "nth":
		i := op.Arg(0)
		if i < 0 || i >= int64(len(s.items)) {
			return Empty
		}
		return s.items[i]
	case "len":
		return int64(len(s.items))
	}
	panic("seqspec: list: unknown op " + op.Kind)
}

func (s *listState) Clone() State {
	return &listState{items: append([]int64(nil), s.items...)}
}

func (s *listState) Key() string { return encodeInts(s.items) }

// --- Key-value map ---

// KV is a key-value map: put(k,v) returns the old value or Empty, get(k)
// returns the value or Empty, del(k) returns the old value or Empty.
//
// The state is a persistent hash array mapped trie whose root is a
// direct-indexed array of 32 child pointers held in the state, so Clone is
// one struct copy that copies the root's pointers and shares every child
// node. put/del repoint one root entry in place and copy the rest of one
// root-to-leaf path (at most kvMaxDepth-1 child nodes of at most 32 slots
// of 24 bytes each, a level-1 node behind one more header slot); child
// nodes are never edited once the call that built them returns, which is
// what lets clones, snapshots and the read fast path share them across
// goroutines. Inside one edit Window a put edits in place the children
// that window built (see kvState). A KV starts empty.
type KV struct{}

// Name implements Object.
func (KV) Name() string { return "kv" }

// Init implements Object.
func (KV) Init() State { return &kvState{} }

// ReadOnly implements Object.
func (KV) ReadOnly(op Op) bool { return op.Kind == "get" || op.Kind == "len" }

// kvMaxDepth is the trie's level count: each level consumes 5 hash bits,
// and 13 levels cover all 64, so two distinct keys (whose hashes differ,
// kvHash being a bijection) always part by the last level.
const kvMaxDepth = 13

// kvSlot is one 24-byte slot of a trie node; a node is just its
// bitmap-compressed slot array (one allocation). A leaf slot (kids == nil)
// holds a key and its value; an internal slot holds a pointer to the child
// node's first slot in kids, the child's bitmap in key, and in val the edit
// token of the window that built the child (0 for a child built by del,
// kvSplit or KVOf, which no window ever edits; OpenKVWindow's build carries
// its window's token). A level-1 node has no parent slot, so it carries
// its own: a header slot (kids == nil) at the front of its allocation,
// holding its bitmap and token, ahead of its slots. A node's length is not
// stored: it is the popcount of its bitmap (kvNode).
type kvSlot struct {
	key  int64
	val  int64
	kids *kvSlot
}

// kvNode views the node with bitmap bm whose allocation starts at p,
// past its lead header slots: 0 below level 1, 1 at level 1. It is the
// package's one use of unsafe, and it is sound because every child
// pointer, a slot's kids or a root entry kvState.kids[i], is &out[0] of a
// make([]kvSlot, lead+popcount(bm)) (kvAlloc, never empty), and that bm
// travels with the pointer: in the same slot's key, or in the level-1
// header out[0]. The race detector's checkptr mode checks every view
// against its allocation.
func kvNode(p *kvSlot, bm uint32, lead int) []kvSlot {
	return unsafe.Slice(p, lead+bits.OnesCount32(bm))[lead:]
}

// kvFrame is one level of a root-to-leaf path below the root: the node
// visited, its bitmap, the key's index bit at that level, and whether the
// open edit window built the node, so a put may edit it in place.
type kvFrame struct {
	node    []kvSlot
	bm, bit uint32
	own     bool
}

// kvState is one trie plus its edit-window bookkeeping. The root is
// direct-indexed: a key hash's top 5 bits, i, select kids[i], the header
// of the level-1 node, nil when no key has index i. The root holds no
// leaves, so a key alone under its index sits in a one-slot level-1 node,
// the only single-leaf node the trie has. No other state reaches the root,
// since Clone copies it, so put and del repoint its entries in place;
// child nodes are shared. OpenWindow bumps edit and opens a window; a put
// inside it stamps every child it copies with edit (below level 1 in the
// parent slot's val, at level 1 in the header's) and edits in place only a
// child stamped with the open token. That is race-free without any owner
// retiring a token:
//   - every child a state reaches carries a stamp no greater than its edit,
//     and a window opens under edit+1, so a fresh window can only edit
//     children it built itself;
//   - those children are reachable only from this private state until the
//     window closes (before ApplyAll returns, or at Window.Close);
//   - Clone is a struct copy that writes nothing, so concurrent clones of
//     one stored snapshot stay read-only. Two of them may open windows with
//     the same token value, but they share no child built after the clone.
//
// The struct is 280 bytes: Clone is one allocation in the 288-byte size
// class, and only its 256 bytes of kids hold pointers for the collector
// to scan.
type kvState struct {
	kids    [32]*kvSlot // kids[i] is the header of the level-1 node under root index i, or nil
	n       int64
	edit    uint64 // the lineage's window counter: the open window's token
	editing bool   // a window is open
}

// openWindow starts an edit window under a token no reachable node
// carries.
func (s *kvState) openWindow() { s.edit, s.editing = s.edit+1, true }

// closeWindow ends the window: from here on every child is immutable again.
func (s *kvState) closeWindow() { s.editing = false }

// level1 views root entry i from its header: the level-1 node, its bitmap
// and its edit token. An empty entry is an empty node with bitmap 0.
func (s *kvState) level1(i uint64) (node []kvSlot, bm uint32, tok uint64) {
	p := s.kids[i]
	if p == nil {
		return nil, 0, 0
	}
	return kvNode(p, uint32(p.key), 1), uint32(p.key), uint64(p.val)
}

// kvHash is the splitmix64 finalizer: a fixed (unseeded, so replicas agree)
// bijective mixer, so distinct keys never share a full hash.
func kvHash(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// kvBit is the key's slot bit at level: five hash bits per level, from the
// top down. The shard router picks a key's shard from the low bits of a
// similar mixer, so indexing from the low bits would leave most root slots
// of a shard's trie empty.
func kvBit(h uint64, level int) uint32 {
	return 1 << (h << (5 * level) >> 59)
}

// kvPos is the slot index of bit in a node with bitmap bm.
func kvPos(bm, bit uint32) int { return bits.OnesCount32(bm & (bit - 1)) }

// kvAlloc allocates a node with bitmap bm, which is not 0, and returns
// its slots and the internal slot that points at it, stamped tok. A
// level-1 node (head) gets a header slot with the same bitmap and stamp
// in front of its slots, and the returned slot points at the header.
func kvAlloc(bm uint32, tok int64, head bool) ([]kvSlot, kvSlot) {
	lead := 0
	if head {
		lead = 1
	}
	out := make([]kvSlot, lead+bits.OnesCount32(bm))
	link := kvSlot{key: int64(bm), val: tok, kids: &out[0]}
	if head {
		out[0] = kvSlot{key: int64(bm), val: tok}
	}
	return out[lead:], link
}

// kvWith copies node with bit's slot set to rep, inserting it when bit is
// absent, and returns the slot that points at the copy (kvAlloc).
func kvWith(node []kvSlot, bm, bit uint32, rep kvSlot, tok int64, head bool) kvSlot {
	pos, rest := kvPos(bm, bit), node
	if bm&bit != 0 {
		rest = node[1:]
	}
	out, link := kvAlloc(bm|bit, tok, head)
	copy(out, node[:pos])
	out[pos] = rep
	copy(out[pos+1:], rest[pos:])
	return link
}

// kvWithout copies node, which has two or more slots, with bit's (present)
// slot removed, and returns the slot that points at the copy, stamped 0.
func kvWithout(node []kvSlot, bm, bit uint32, head bool) kvSlot {
	pos := kvPos(bm, bit)
	out, link := kvAlloc(bm&^bit, 0, head)
	copy(out, node[:pos])
	copy(out[pos:], node[pos+1:])
	return link
}

// kvSplit builds the subtree that replaces leaf a when leaf b lands on its
// slot: single-slot nodes from level down to the first level where their
// hashes part, then one node holding both leaves.
func kvSplit(a kvSlot, ha uint64, b kvSlot, hb uint64, level int) kvSlot {
	d := bits.LeadingZeros64(ha^hb) / 5 // first level whose 5 bits differ
	ba, bb := kvBit(ha, d), kvBit(hb, d)
	pair := []kvSlot{a, b}
	if bb < ba {
		pair[0], pair[1] = b, a
	}
	sl := kvSlot{key: int64(ba | bb), kids: &pair[0]}
	// One single-slot node per shared level: fewer than kvMaxDepth.
	for l := d - 1; l >= level; l-- {
		child := sl
		sl = kvSlot{key: int64(kvBit(ha, l)), kids: &child}
	}
	return sl
}

func (s *kvState) Apply(op Op) int64 {
	switch op.Kind {
	case "put":
		return s.put(op.Arg(0), op.Arg(1))
	case "get":
		return s.get(op.Arg(0))
	case "del":
		return s.del(op.Arg(0))
	case "len":
		return s.n
	}
	panic("seqspec: kv: unknown op " + op.Kind)
}

func (s *kvState) get(k int64) int64 {
	h := kvHash(k)
	node, bm, _ := s.level1(h >> 59)
	for level := 1; level < kvMaxDepth; level++ {
		bit := kvBit(h, level)
		if bm&bit == 0 {
			return Empty
		}
		sl := &node[kvPos(bm, bit)]
		if sl.kids == nil {
			if sl.key == k {
				return sl.val
			}
			return Empty
		}
		bm = uint32(sl.key)
		node = kvNode(sl.kids, bm, 0)
	}
	panic("seqspec: kv: trie deeper than kvMaxDepth")
}

// descend records hash h's path below the root, from level 1 on, and
// returns the level where it ends: at a leaf slot (hit) or at a free slot
// (!hit). An empty root entry's path ends at level 1, in an empty node.
func (s *kvState) descend(h uint64, path *[kvMaxDepth]kvFrame) (depth int, leaf kvSlot, hit bool) {
	node, bm, tok := s.level1(h >> 59)
	own := s.editing && tok == s.edit
	for level := 1; level < kvMaxDepth; level++ {
		bit := kvBit(h, level)
		path[level] = kvFrame{node: node, bm: bm, bit: bit, own: own}
		if bm&bit == 0 {
			return level, kvSlot{}, false
		}
		sl := node[kvPos(bm, bit)]
		if sl.kids == nil {
			return level, sl, true
		}
		bm, own = uint32(sl.key), s.editing && uint64(sl.val) == s.edit
		node = kvNode(sl.kids, bm, 0)
	}
	panic("seqspec: kv: trie deeper than kvMaxDepth")
}

func (s *kvState) put(k, v int64) int64 {
	h := kvHash(k)
	var path [kvMaxDepth]kvFrame
	depth, sl, hit := s.descend(h, &path)
	rep, old := kvSlot{key: k, val: v}, Empty
	switch {
	case !hit:
		s.n++
	case sl.key == k:
		old = sl.val
	default:
		rep = kvSplit(sl, kvHash(sl.key), rep, h, depth+1)
		s.n++
	}
	// Copy the path back up to the root, whose entry is repointed in place:
	// at most kvMaxDepth-1 children. A child the open window built takes rep
	// in place when rep replaces one of its slots; its ancestors still hold
	// it unchanged, so the walk ends there. Every copy is stamped with the
	// token, a level-1 copy in its header.
	for i := depth; i > 0; i-- {
		f := path[i]
		if f.own && f.bm&f.bit != 0 {
			f.node[kvPos(f.bm, f.bit)] = rep
			return old
		}
		rep = kvWith(f.node, f.bm, f.bit, rep, int64(s.edit), i == 1)
	}
	s.kids[h>>59] = rep.kids
	return old
}

// del removes k by copying its path minus the leaf, inside a window too,
// and repointing the root entry in place. A node below level 1 left
// holding a single leaf is dropped and the leaf moves up into the parent,
// so the trie's shape depends only on its contents; a level-1 node keeps a
// lone leaf, and one left empty empties its root entry (nil). The copies
// are stamped 0, so no window edits them.
func (s *kvState) del(k int64) int64 {
	h := kvHash(k)
	var path [kvMaxDepth]kvFrame
	depth, sl, hit := s.descend(h, &path)
	if !hit || sl.key != k {
		return Empty
	}
	s.n--
	var rep kvSlot
	gone := true // the slot below is removed rather than replaced by rep
	// Copy the path back up to the root: at most kvMaxDepth-1 children.
	for i := depth; i > 0; i-- {
		f := path[i]
		if i > 1 && gone && len(f.node) == 2 {
			if other := f.node[1-kvPos(f.bm, f.bit)]; other.kids == nil {
				rep, gone = other, false // the sibling leaf moves up
				continue
			}
		}
		if i > 1 && !gone && len(f.node) == 1 && rep.kids == nil {
			continue // a single-slot chain node collapses; the leaf keeps moving up
		}
		if gone && len(f.node) == 1 {
			break // k was alone under its root index, which empties: rep stays zero
		}
		// A node below level 1 holds two or more slots, or one internal
		// slot, and the leaf cases above never leave it empty.
		if gone {
			rep = kvWithout(f.node, f.bm, f.bit, i == 1)
		} else {
			rep = kvWith(f.node, f.bm, f.bit, rep, 0, i == 1)
		}
		gone = false
	}
	s.kids[h>>59] = rep.kids
	return sl.val
}

// Clone copies the root's 32 child pointers, shares every child (each
// level-1 node with its header) and writes nothing: it is never called
// inside a window, and between windows every child is immutable. It is
// one allocation of 288 bytes.
func (s *kvState) Clone() State { c := *s; return &c }

// each calls fn on every leaf slot, in trie order. Under each root entry
// the walk keeps one pending-slot cursor per level on an explicit stack
// (no recursion): every slot is visited once.
func (s *kvState) each(fn func(leaf kvSlot)) {
	var stack [kvMaxDepth][]kvSlot
	for i := range s.kids {
		stack[0], _, _ = s.level1(uint64(i))
		for top := 0; top >= 0; {
			if len(stack[top]) == 0 {
				top--
				continue
			}
			sl := stack[top][0]
			stack[top] = stack[top][1:]
			if sl.kids == nil {
				fn(sl)
				continue
			}
			top++
			stack[top] = kvNode(sl.kids, uint32(sl.key), 0)
		}
	}
}

// Key renders the contents as "k=v," sorted by signed key.
func (s *kvState) Key() string {
	leaves := make([]kvSlot, 0, s.n)
	s.each(func(leaf kvSlot) { leaves = append(leaves, leaf) })
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].key < leaves[j].key })
	var b []byte
	for _, sl := range leaves {
		b = strconv.AppendInt(b, sl.key, 10)
		b = append(b, '=')
		b = strconv.AppendInt(b, sl.val, 10)
		b = append(b, ',')
	}
	return string(b)
}

// KVHas reports whether k is present in st, which must come from KV (any
// other State panics), without allocating. Presence is not get(k) != Empty:
// a put may store Empty.
func KVHas(st State, k int64) bool {
	var path [kvMaxDepth]kvFrame
	_, leaf, hit := st.(*kvState).descend(kvHash(k), &path)
	return hit && leaf.key == k
}

// KVPairs returns the contents of a KV state as a fresh map the caller
// owns. It is how the server persists a shard's state; st must come from
// KV (any other State panics).
func KVPairs(st State) map[int64]int64 {
	s := st.(*kvState)
	m := make(map[int64]int64, s.n)
	s.each(func(leaf kvSlot) { m[leaf.key] = leaf.val })
	return m
}

// kvLeaf is a pair beside its key's hash, for KVOf's sort. It holds no
// pointer, so the sort's buffers cost the garbage collector no scan.
type kvLeaf struct {
	h        uint64
	key, val int64
}

// kvBitmap is the bitmap of the node at level that holds leaves.
func kvBitmap(leaves []kvLeaf, level int) uint32 {
	var bm uint32
	for _, l := range leaves {
		bm |= kvBit(l.h, level)
	}
	return bm
}

// kvSortLeaves sorts leaves by hash: two counting-sort passes on the top
// 16 bits, then a comparison sort of each run of leaves whose hashes share
// those bits, which is rare and short unless the keys were chosen to
// collide.
func kvSortLeaves(leaves []kvLeaf) {
	src, dst := leaves, make([]kvLeaf, len(leaves))
	for shift := 48; shift < 64; shift += 8 {
		var at [256]int
		for _, l := range src {
			at[l.h>>shift&0xff]++
		}
		sum := 0
		for i, c := range at {
			at[i], sum = sum, sum+c
		}
		for _, l := range src {
			b := l.h >> shift & 0xff
			dst[at[b]] = l
			at[b]++
		}
		src, dst = dst, src
	}
	// An even number of passes leaves the result in leaves.
	for lo := 0; lo < len(leaves); {
		hi := lo + 1
		for hi < len(leaves) && leaves[hi].h>>48 == leaves[lo].h>>48 {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(leaves[lo:hi], func(a, b kvLeaf) int { return cmp.Compare(a.h, b.h) })
		}
		lo = hi
	}
}

// KVOf is the inverse of KVPairs: a fresh KV state holding pairs, built in
// one pass. It sorts the pairs by hash, which is trie order because kvBit
// reads the top bits first, then allocates every node once, at its final
// size, in the shape puts of the same pairs would give it, kvSplit's
// single-slot chains included. Every internal slot carries edit token 0,
// so a later window copies these nodes rather than editing them.
func KVOf(pairs map[int64]int64) State { return kvOf(pairs, false) }

// OpenKVWindow builds pairs as KVOf does, inside an edit Window opened on
// the new state, which owns every node: the window's puts edit them in
// place instead of copying each node a path shares with the build. Close
// the window before the state (Window.State) is cloned or shared.
func OpenKVWindow(pairs map[int64]int64) Window { return Window{kvOf(pairs, true)} }

// kvOf is KVOf, and OpenKVWindow when open: the build then stamps every
// internal slot and every level-1 header with the token of the window it
// opens. The root is the fill's bottom frame, whose groups become root
// entries (level-1 headers) rather than slots.
func kvOf(pairs map[int64]int64, open bool) *kvState {
	s := &kvState{n: int64(len(pairs))}
	var tok int64
	if open {
		s.openWindow()
		tok = int64(s.edit)
	}
	leaves := make([]kvLeaf, 0, len(pairs))
	for k, v := range pairs {
		leaves = append(leaves, kvLeaf{h: kvHash(k), key: k, val: v})
	}
	kvSortLeaves(leaves)
	// A depth-first fill with one frame per level, as in each: the node
	// being filled (none at the root, level 0), its level, its next slot
	// and the leaves left below it.
	type frame struct {
		node   []kvSlot
		level  int
		next   int
		leaves []kvLeaf
	}
	var stack [kvMaxDepth]frame
	stack[0] = frame{leaves: leaves}
	top := 0
	for top >= 0 {
		f := &stack[top]
		if len(f.leaves) == 0 {
			top--
			continue
		}
		// The next slot holds the leaves that share the first one's bit.
		bit := kvBit(f.leaves[0].h, f.level)
		n := 1
		for n < len(f.leaves) && kvBit(f.leaves[n].h, f.level) == bit {
			n++
		}
		group := f.leaves[:n]
		f.leaves = f.leaves[n:]
		if n == 1 && f.level > 0 {
			f.node[f.next] = kvSlot{key: group[0].key, val: group[0].val}
			f.next++
			continue
		}
		// A root entry, or two or more leaves: a child one level down, a
		// single-slot chain node when they share its bit too.
		child, link := kvAlloc(kvBitmap(group, f.level+1), tok, f.level == 0)
		if f.level == 0 {
			s.kids[group[0].h>>59] = link.kids
		} else {
			f.node[f.next] = link
			f.next++
		}
		top++
		stack[top] = frame{node: child, level: f.level + 1, leaves: group}
	}
	return s
}

// --- Bank ---

// Bank is a multi-account bank: deposit(a,v), withdraw(a,v) (fails with 0
// if insufficient, returns 1 on success), transfer(a,b,v) (same), and
// balance(a). It exemplifies a multi-word object that is painful to make
// lock-free by hand and trivial under the universal construction.
type Bank struct{ Accounts int }

// Name implements Object.
func (Bank) Name() string { return "bank" }

// Init implements Object.
func (b Bank) Init() State {
	n := b.Accounts
	if n == 0 {
		n = 8
	}
	return &bankState{bal: make([]int64, n)}
}

// ReadOnly implements Object.
func (Bank) ReadOnly(op Op) bool { return op.Kind == "balance" || op.Kind == "total" }

type bankState struct{ bal []int64 }

func (s *bankState) acct(i int64) int {
	n := int64(len(s.bal))
	i %= n
	if i < 0 {
		i += n
	}
	return int(i)
}

func (s *bankState) Apply(op Op) int64 {
	switch op.Kind {
	case "deposit":
		a := s.acct(op.Arg(0))
		s.bal[a] += op.Arg(1)
		return s.bal[a]
	case "withdraw":
		a := s.acct(op.Arg(0))
		v := op.Arg(1)
		if s.bal[a] < v {
			return 0
		}
		s.bal[a] -= v
		return 1
	case "transfer":
		a, b := s.acct(op.Arg(0)), s.acct(op.Arg(1))
		v := op.Arg(2)
		if s.bal[a] < v {
			return 0
		}
		s.bal[a] -= v
		s.bal[b] += v
		return 1
	case "balance":
		return s.bal[s.acct(op.Arg(0))]
	case "total":
		var t int64
		for _, v := range s.bal {
			t += v
		}
		return t
	}
	panic("seqspec: bank: unknown op " + op.Kind)
}

func (s *bankState) Clone() State {
	return &bankState{bal: append([]int64(nil), s.bal...)}
}

func (s *bankState) Key() string { return encodeInts(s.bal) }

func encodeInts(vs []int64) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte(',')
	}
	return b.String()
}
