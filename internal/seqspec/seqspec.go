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
// serve, keeps its state in a persistent hash trie, so its Clone really is
// one step and its Apply walks at most 13 levels of at most 32 slots; the
// other objects' Clones still copy their whole state.
//
//wf:waitfree
package seqspec

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Op is an operation invocation: a kind and its arguments.
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
// Clone is a struct copy and its Apply costs at most kvMaxDepth (13) levels
// × 32 slots, independent of the key count. Set, Queue, Stack, PQueue, List
// and Bank clone in time linear in their size.
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
	// Response-publication contract: Apply must be deterministic and total —
	// a pure function of the state *value* and the op, never of the replica
	// identity, iteration order of an unordered container, randomness, or
	// time. The universal construction's helping protocol depends on this:
	// any process that replays a decided log prefix may publish the response
	// it computed into another operation's result slot, and the operation's
	// invoker returns that value as its own. Two replicas replaying the same
	// prefix must therefore compute bit-identical responses and states (the
	// cross-spec determinism test in contract_test.go enforces both).
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

// ApplyAll applies ops to s in order and returns each op's response: the
// batch-execution step of the universal construction's helping protocol,
// where one executor settles a whole decided batch against a single
// reconstructed state. The slice of responses is indexed like ops.
func ApplyAll(s State, ops []Op) []int64 {
	out := make([]int64, len(ops))
	for i, op := range ops {
		out[i] = s.Apply(op)
	}
	return out
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
// The state is a persistent hash array mapped trie, so Clone is a struct
// copy and put/del copy one root-to-leaf path (at most kvMaxDepth nodes of
// at most 32 slots); nodes are never edited once built, which is what lets
// clones, snapshots and the read fast path share them across goroutines.
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

// kvSlot is one slot of a trie node; a node is just its bitmap-compressed
// slot slice (one allocation). A leaf slot (kids == nil) holds a key and its
// value; an internal slot holds the child node in kids and the child's
// bitmap in key.
type kvSlot struct {
	key  int64
	val  int64
	kids []kvSlot
}

// kvFrame is one level of a root-to-leaf path: the node visited, its
// bitmap, and the key's index bit at that level.
type kvFrame struct {
	node    []kvSlot
	bm, bit uint32
}

type kvState struct {
	root []kvSlot
	bm   uint32
	n    int64
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

// kvWith returns a copy of node with bit's slot set to rep, inserting it
// when bit is absent.
func kvWith(node []kvSlot, bm, bit uint32, rep kvSlot) ([]kvSlot, uint32) {
	pos := kvPos(bm, bit)
	if bm&bit != 0 {
		out := make([]kvSlot, len(node))
		copy(out, node)
		out[pos] = rep
		return out, bm
	}
	out := make([]kvSlot, len(node)+1)
	copy(out, node[:pos])
	out[pos] = rep
	copy(out[pos+1:], node[pos:])
	return out, bm | bit
}

// kvWithout returns a copy of node with bit's (present) slot removed.
func kvWithout(node []kvSlot, bm, bit uint32) ([]kvSlot, uint32) {
	if len(node) == 1 {
		return nil, 0
	}
	pos := kvPos(bm, bit)
	out := make([]kvSlot, len(node)-1)
	copy(out, node[:pos])
	copy(out[pos:], node[pos+1:])
	return out, bm &^ bit
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
	sl := kvSlot{key: int64(ba | bb), kids: pair}
	// One single-slot node per shared level: fewer than kvMaxDepth.
	for l := d - 1; l >= level; l-- {
		sl = kvSlot{key: int64(kvBit(ha, l)), kids: []kvSlot{sl}}
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
	node, bm := s.root, s.bm
	for level := 0; level < kvMaxDepth; level++ {
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
		node, bm = sl.kids, uint32(sl.key)
	}
	panic("seqspec: kv: trie deeper than kvMaxDepth")
}

// descend records hash h's root-to-leaf path and returns the level where it
// ends: at a leaf slot (hit) or at a free slot (!hit).
func (s *kvState) descend(h uint64, path *[kvMaxDepth]kvFrame) (depth int, leaf kvSlot, hit bool) {
	node, bm := s.root, s.bm
	for level := 0; level < kvMaxDepth; level++ {
		bit := kvBit(h, level)
		path[level] = kvFrame{node: node, bm: bm, bit: bit}
		if bm&bit == 0 {
			return level, kvSlot{}, false
		}
		sl := node[kvPos(bm, bit)]
		if sl.kids == nil {
			return level, sl, true
		}
		node, bm = sl.kids, uint32(sl.key)
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
	// Copy the path back up: at most kvMaxDepth nodes.
	for i := depth; i >= 0; i-- {
		f := path[i]
		nn, nbm := kvWith(f.node, f.bm, f.bit, rep)
		rep = kvSlot{key: int64(nbm), kids: nn}
	}
	s.root, s.bm = rep.kids, uint32(rep.key)
	return old
}

// del removes k by copying its path minus the leaf. A non-root node left
// holding a single leaf is dropped and the leaf moves up into the parent,
// so the trie's shape depends only on its contents.
func (s *kvState) del(k int64) int64 {
	var path [kvMaxDepth]kvFrame
	depth, sl, hit := s.descend(kvHash(k), &path)
	if !hit || sl.key != k {
		return Empty
	}
	s.n--
	var rep kvSlot
	gone := true // the slot below is removed rather than replaced by rep
	// Copy the path back up: at most kvMaxDepth nodes.
	for i := depth; i >= 0; i-- {
		f := path[i]
		if i > 0 && gone && len(f.node) == 2 {
			if other := f.node[1-kvPos(f.bm, f.bit)]; other.kids == nil {
				rep, gone = other, false // the sibling leaf moves up
				continue
			}
		}
		if i > 0 && !gone && len(f.node) == 1 && rep.kids == nil {
			continue // a single-slot chain node collapses; the leaf keeps moving up
		}
		// Only the root can lose its last slot: a non-root node holds two
		// or more slots, or one internal slot, and the leaf cases above
		// never leave it empty.
		var nn []kvSlot
		var nbm uint32
		if gone {
			nn, nbm = kvWithout(f.node, f.bm, f.bit)
		} else {
			nn, nbm = kvWith(f.node, f.bm, f.bit, rep)
		}
		rep, gone = kvSlot{key: int64(nbm), kids: nn}, false
	}
	s.root, s.bm = rep.kids, uint32(rep.key)
	return sl.val
}

// Clone shares every node: they are immutable once built.
func (s *kvState) Clone() State { c := *s; return &c }

// each calls fn on every leaf slot, in trie order. The walk keeps one
// pending-slot cursor per level on an explicit stack (no recursion): every
// slot is visited once.
func (s *kvState) each(fn func(leaf kvSlot)) {
	var stack [kvMaxDepth][]kvSlot
	stack[0] = s.root
	top := 0
	for top >= 0 {
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
		stack[top] = sl.kids
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

// KVPairs returns the contents of a KV state as a fresh map the caller
// owns. It is how the server persists a shard's state; st must come from
// KV (any other State panics).
func KVPairs(st State) map[int64]int64 {
	s := st.(*kvState)
	m := make(map[int64]int64, s.n)
	s.each(func(leaf kvSlot) { m[leaf.key] = leaf.val })
	return m
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
