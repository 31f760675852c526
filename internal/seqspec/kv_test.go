package seqspec

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// kvModelKey renders a plain map the way the map-backed kvState did: the
// byte-exact Key contract the trie must keep.
func kvModelKey(m map[int64]int64) string {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	var b strings.Builder
	for _, k := range ks {
		fmt.Fprintf(&b, "%d=%d,", k, m[k])
	}
	return b.String()
}

// kvModelApply is the reference semantics of every KV op over a map.
func kvModelApply(m map[int64]int64, op Op) int64 {
	k := op.Arg(0)
	old, ok := m[k]
	if !ok {
		old = Empty
	}
	switch op.Kind {
	case "put":
		m[k] = op.Arg(1)
	case "del":
		delete(m, k)
	case "len":
		return int64(len(m))
	}
	return old
}

// kvUnhash inverts kvHash, so tests can build keys whose hashes share any
// prefix they like.
func kvUnhash(h uint64) int64 {
	unshift := func(x uint64, s uint) uint64 {
		y := x
		for i := s; i < 64; i += s {
			y = x ^ y>>s
		}
		return y
	}
	inv := func(a uint64) uint64 { // Newton's iteration for a^-1 mod 2^64
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	x := unshift(h, 31)
	x *= inv(0x94d049bb133111eb)
	x = unshift(x, 27)
	x *= inv(0xbf58476d1ce4e5b9)
	return int64(unshift(x, 30))
}

// kvSharedPrefix returns count keys from anchor up whose hashes agree on
// their top prefixBits bits with anchor's: found by brute force.
func kvSharedPrefix(anchor int64, prefixBits uint, count int) []int64 {
	want := kvHash(anchor) >> (64 - prefixBits)
	out := []int64{anchor}
	for k := anchor + 1; len(out) < count; k++ {
		if kvHash(k)>>(64-prefixBits) == want {
			out = append(out, k)
		}
	}
	return out
}

// kvKeyPools are the key distributions the differential tests draw from.
func kvKeyPools() map[string][]int64 {
	dense := make([]int64, 4096)
	for i := range dense {
		dense[i] = int64(i)
	}
	full := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, Empty, -Empty, math.MinInt64 + 1, math.MaxInt64 - 1}
	r := rand.New(rand.NewSource(1))
	for len(full) < 64 {
		full = append(full, int64(r.Uint64()))
	}
	// Keys sharing their first 2 and 3 trie levels (10 and 15 hash bits),
	// plus keys built through the inverse mixer whose hashes differ only
	// in their last few bits: the deepest paths the trie can have.
	shared := append(kvSharedPrefix(0, 10, 8), kvSharedPrefix(1<<20, 15, 8)...)
	base := kvHash(12345) &^ 0xff
	for i := uint64(0); i < 20; i++ {
		shared = append(shared, kvUnhash(base|i))
	}
	return map[string][]int64{"dense": dense, "full-range": full, "shared-prefix": shared}
}

// kvCheckShape asserts the trie's structural invariants: every non-nil
// root entry points at a level-1 header (kids nil, a nonzero bitmap),
// every edit token, in a header or an internal slot, is at most the
// state's edit, every leaf sits on its hash's path, no node is deeper than
// kvMaxDepth or empty, every node below level 1 has two or more slots or a
// single internal slot (collapse on delete), so a level-1 node is the only
// one that may hold a lone leaf, and the cached length matches the leaf
// count. It walks through kvNode, as every production walk does. It
// returns the deepest leaf's level.
func kvCheckShape(t *testing.T, s *kvState) (deepest int) {
	t.Helper()
	leaves := 0
	var walk func(node []kvSlot, bm uint32, level int, prefix uint64)
	walk = func(node []kvSlot, bm uint32, level int, prefix uint64) {
		if level >= kvMaxDepth {
			t.Fatalf("node at level %d, beyond kvMaxDepth", level)
		}
		if len(node) == 0 || level > 1 && len(node) == 1 && node[0].kids == nil {
			t.Fatalf("level %d: uncollapsed node with %d slots", level, len(node))
		}
		i := 0
		for idx := uint64(0); idx < 32; idx++ {
			if bm&(1<<idx) == 0 {
				continue
			}
			sl := node[i]
			i++
			p := prefix<<5 | idx
			if sl.kids == nil {
				leaves++
				deepest = max(deepest, level)
				if got := kvHash(sl.key) << (5 * level) >> 59; got != idx || kvHash(sl.key)>>(64-5*level) != prefix {
					t.Fatalf("leaf %d at level %d slot %d is off its hash path", sl.key, level, idx)
				}
				continue
			}
			if uint64(sl.val) > s.edit {
				t.Fatalf("level %d slot %d: stamped %d, past the state's edit %d", level, idx, sl.val, s.edit)
			}
			walk(kvNode(sl.kids, uint32(sl.key), 0), uint32(sl.key), level+1, p)
		}
	}
	for i, p := range s.kids {
		if p == nil {
			continue
		}
		if p.kids != nil || uint32(p.key) == 0 || uint64(p.val) > s.edit {
			t.Fatalf("root entry %d: header %+v, want kids nil, a bitmap and a stamp at most %d", i, *p, s.edit)
		}
		node, bm, _ := s.level1(uint64(i))
		walk(node, bm, 1, uint64(i))
	}
	if int64(leaves) != s.n {
		t.Fatalf("cached len %d, %d leaves", s.n, leaves)
	}
	return deepest
}

// TestKVDeepPath: keys built through the inverse mixer, whose hashes differ
// only in their last 4 bits, must part at the last level — the trie reaches
// exactly kvMaxDepth levels and no further.
func TestKVDeepPath(t *testing.T) {
	base := kvHash(-99) &^ 0xf
	s := KV{}.Init()
	for i := uint64(0); i < 16; i++ {
		k := kvUnhash(base | i)
		if kvHash(k) != base|i {
			t.Fatalf("kvUnhash does not invert kvHash at %#x", base|i)
		}
		s.Apply(Op{Kind: "put", Args: []int64{k, int64(i)}})
	}
	if d := kvCheckShape(t, s.(*kvState)); d != kvMaxDepth-1 {
		t.Fatalf("deepest leaf at level %d, want %d", d, kvMaxDepth-1)
	}
}

// kvReplica is one live state and the map model it must match.
type kvReplica struct {
	s State
	m map[int64]int64
}

// clone forks the replica: a State Clone beside a copy of its model.
func (r *kvReplica) clone() *kvReplica {
	c := &kvReplica{s: r.s.Clone(), m: make(map[int64]int64, len(r.m))}
	for k, v := range r.m {
		c.m[k] = v
	}
	return c
}

// kvRandOp draws one op over pool: 3/8 put, 2/8 get, 2/8 del, 1/8 len.
func kvRandOp(r *rand.Rand, pool []int64) Op {
	k := pool[r.Intn(len(pool))]
	switch r.Intn(8) {
	case 0, 1, 2:
		return Op{Kind: "put", Args: []int64{k, r.Int63n(1000) - 500}}
	case 3, 4:
		return Op{Kind: "get", Args: []int64{k}}
	case 5, 6:
		return Op{Kind: "del", Args: []int64{k}}
	}
	return Op{Kind: "len"}
}

// TestKVHasStoredEmpty: presence is the trie's, not get's: a key that
// holds Empty is present, and a key that never was or was deleted is not,
// including one that shares all but its last hash bits with a present key.
func TestKVHasStoredEmpty(t *testing.T) {
	s := KV{}.Init()
	base := kvHash(7) &^ 0xf
	near, far := kvUnhash(base|1), kvUnhash(base|2)
	s.Apply(Op{Kind: "put", Args: []int64{near, Empty}})
	s.Apply(Op{Kind: "put", Args: []int64{3, 0}})
	for _, c := range []struct {
		k    int64
		want bool
	}{{near, true}, {3, true}, {far, false}, {4, false}} {
		if got := KVHas(s, c.k); got != c.want {
			t.Errorf("KVHas(%d) = %v, want %v", c.k, got, c.want)
		}
	}
	s.Apply(Op{Kind: "del", Args: []int64{near}})
	if KVHas(s, near) {
		t.Error("KVHas after del = true")
	}
	if allocs := testing.AllocsPerRun(100, func() { KVHas(s, 3) }); allocs != 0 {
		t.Errorf("KVHas allocates %.0f times", allocs)
	}
}

// TestKVStateDifferential drives random put/get/del/len against a map
// model over three key pools, cloning at random points after which both
// sides keep mutating; every response and every live replica's Key and
// KVPairs must match its own model. KVOf must invert KVPairs, and the state
// it rebuilds must keep tracking the model under further Apply, ApplyAll
// and Clone rounds.
func TestKVStateDifferential(t *testing.T) {
	for name, pool := range kvKeyPools() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(pool))))
			reps := []*kvReplica{{s: KV{}.Init(), m: map[int64]int64{}}}
			for i := 0; i < 20000; i++ {
				rp := reps[r.Intn(len(reps))]
				if r.Intn(200) == 0 && len(reps) < 8 {
					reps = append(reps, rp.clone())
					continue
				}
				op := kvRandOp(r, pool)
				if got, want := rp.s.Apply(op), kvModelApply(rp.m, op); got != want {
					t.Fatalf("op %d %v: got %d, want %d", i, op, got, want)
				}
				if len(op.Args) > 0 {
					if _, in := rp.m[op.Arg(0)]; KVHas(rp.s, op.Arg(0)) != in {
						t.Fatalf("op %d %v: KVHas = %v, want %v", i, op, !in, in)
					}
				}
			}
			for i, rp := range reps {
				if got, want := rp.s.Key(), kvModelKey(rp.m); got != want {
					t.Fatalf("replica %d: Key\n got %q\nwant %q", i, got, want)
				}
				if got, want := kvModelKey(KVPairs(rp.s)), kvModelKey(rp.m); got != want {
					t.Fatalf("replica %d: KVPairs\n got %q\nwant %q", i, got, want)
				}
				kvCheckShape(t, rp.s.(*kvState))
				rebuilt := KVOf(KVPairs(rp.s))
				if got, want := rebuilt.Key(), rp.s.Key(); got != want {
					t.Fatalf("replica %d: KVOf(KVPairs) Key\n got %q\nwant %q", i, got, want)
				}
				kvCheckShape(t, rebuilt.(*kvState))
				kvTrackModel(t, r, pool, &kvReplica{s: rebuilt, m: rp.clone().m})
			}
		})
	}
}

// kvTrackModel runs rounds of Apply, ApplyAll windows and Clones on rp
// and checks every response and, after each round, rp's Key against its
// model; a clone taken mid-way must keep its Key while rp moves on.
func kvTrackModel(t *testing.T, r *rand.Rand, pool []int64, rp *kvReplica) {
	t.Helper()
	ops, out := make([]Op, 0, 40), make([]int64, 40)
	for round := 0; round < 20; round++ {
		ops = ops[:0]
		for n := 1 + r.Intn(40); len(ops) < n; {
			ops = append(ops, kvRandOp(r, pool))
		}
		fork := rp.clone()
		before := fork.s.Key()
		if round%2 == 0 {
			ApplyAll(rp.s, ops, out)
		} else {
			for i, op := range ops {
				out[i] = rp.s.Apply(op)
			}
		}
		for i, op := range ops {
			if want := kvModelApply(rp.m, op); out[i] != want {
				t.Fatalf("round %d op %d %v: got %d, want %d", round, i, op, out[i], want)
			}
		}
		if got, want := rp.s.Key(), kvModelKey(rp.m); got != want {
			t.Fatalf("round %d: Key\n got %q\nwant %q", round, got, want)
		}
		if fork.s.Key() != before {
			t.Fatalf("round %d: a clone changed while its source moved on", round)
		}
		if r.Intn(2) == 0 {
			rp = fork
		}
	}
	kvCheckShape(t, rp.s.(*kvState))
}

// TestKVWindowDifferential checks ApplyAll's edit window against per-op
// Apply over the three key pools. Each round draws a source among earlier
// rounds' results, so window lineages nest, and clones it twice: one clone
// runs a window of 1–40 random ops through ApplyAll, the other applies the
// same ops one by one. Every response and both Keys must match the map
// model, the window must be closed when ApplyAll returns, the trie must
// keep its shape, and the source's Key must not change: a window never
// edits a node its source can reach.
func TestKVWindowDifferential(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	for name, pool := range kvKeyPools() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(pool)) + 1))
			srcs := []*kvReplica{{s: KV{}.Init(), m: map[int64]int64{}}}
			ops, out := make([]Op, 0, 40), make([]int64, 40)
			for round := 0; round < rounds; round++ {
				src := srcs[r.Intn(len(srcs))]
				before := src.s.Key()
				win, ref := src.clone(), src.clone()
				ops = ops[:0]
				for n := 1 + r.Intn(40); len(ops) < n; {
					ops = append(ops, kvRandOp(r, pool))
				}
				ApplyAll(win.s, ops, out)
				for i, op := range ops {
					want := kvModelApply(win.m, op)
					kvModelApply(ref.m, op)
					if got := ref.s.Apply(op); got != want {
						t.Fatalf("round %d op %d %v: Apply %d, want %d", round, i, op, got, want)
					}
					if out[i] != want {
						t.Fatalf("round %d op %d %v: window %d, want %d", round, i, op, out[i], want)
					}
				}
				if win.s.(*kvState).editing {
					t.Fatalf("round %d: the window is still open after ApplyAll returned", round)
				}
				kvCheckShape(t, win.s.(*kvState))
				want := kvModelKey(win.m)
				if got := win.s.Key(); got != want {
					t.Fatalf("round %d: window Key\n got %q\nwant %q", round, got, want)
				}
				if got := ref.s.Key(); got != want {
					t.Fatalf("round %d: per-op Key\n got %q\nwant %q", round, got, want)
				}
				if got := src.s.Key(); got != before {
					t.Fatalf("round %d: a window or a per-op replay of a clone edited its source", round)
				}
				// Keep a bounded pool of sources: window results mostly, and
				// some per-op results, so both lineages feed later windows.
				next := win
				if r.Intn(4) == 0 {
					next = ref
				}
				if len(srcs) < 16 {
					srcs = append(srcs, next)
				} else {
					srcs[r.Intn(len(srcs))] = next
				}
			}
		})
	}
}

// kvBytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates, after one warm-up call, on one P.
func kvBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestKVStateHeader pins the layout and Clone. A slot is 24 bytes: a child
// is one pointer and its length is the popcount of the bitmap beside it,
// where a slice header would make it 40 and every path copy 40 % more
// bytes. The state holds its root as 32 child pointers, each level-1
// node's bitmap and edit token living in a header slot at the node's
// front, 280 bytes in all. So Clone is one allocation in the 288-byte size
// class: it copies the root's pointers, which shares every child node,
// and writes nothing to its source, so concurrent clones of a stored
// snapshot stay read-only.
func TestKVStateHeader(t *testing.T) {
	if size := unsafe.Sizeof(kvSlot{}); size != 24 {
		t.Errorf("kvSlot is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(kvState{}); size > 288 {
		t.Errorf("kvState is %d bytes, want at most 288", size)
	}
	s := KV{}.Init()
	ops := make([]Op, 2048)
	for i := range ops {
		ops[i] = Op{Kind: "put", Args: []int64{int64(i), int64(i)}}
	}
	ApplyAll(s, ops, make([]int64, len(ops)))
	if a := testing.AllocsPerRun(100, func() { kvSink = s.Clone() }); a != 1 {
		t.Errorf("Clone allocates %.1f times, want 1", a)
	}
	if b := kvBytesPerRun(100, func() { kvSink = s.Clone() }); b > 288 {
		t.Errorf("Clone allocates %.0f bytes, want at most 288", b)
	}
	ks := s.(*kvState)
	before := *ks
	c := s.Clone().(*kvState)
	if after := *ks; after != before {
		t.Fatalf("Clone wrote to its source: %+v became %+v", before, after)
	}
	// Equal root entries hold equal child pointers: every child is shared.
	if *c != before {
		t.Fatalf("Clone is not a copy of its source: %+v, want %+v", *c, before)
	}
	if &c.kids[0] == &ks.kids[0] {
		t.Fatal("Clone shares its source's root instead of copying its pointers")
	}
}

// TestKVClonePutAllocs pins a replay's cost on a 2 048-key state: a put on
// a fresh clone allocates the clone, then one node per level below the
// root on the key's path, and nothing else. The root, held in the clone,
// is repointed at the new level-1 node in place. Both overwrites and inserts into a free
// slot are checked; an insert that lands on another key's leaf also builds
// kvSplit's chain, so it is left out.
func TestKVClonePutAllocs(t *testing.T) {
	s := KV{}.Init()
	for k := int64(0); k < 2048; k++ {
		s.Apply(Op{Kind: "put", Args: []int64{k, k}})
	}
	ks := s.(*kvState)
	checked := map[bool]int{} // by overwrite (true) or insert (false)
	for k := int64(0); checked[true] < 16 || checked[false] < 16; k += 61 {
		var path [kvMaxDepth]kvFrame
		depth, leaf, hit := ks.descend(kvHash(k), &path)
		if hit && leaf.key != k || checked[hit] == 16 {
			continue
		}
		checked[hit]++
		put := Op{Kind: "put", Args: []int64{k, -k}}
		got := testing.AllocsPerRun(20, func() { c := s.Clone(); c.Apply(put); kvSink = c })
		if want := float64(1 + depth); got != want {
			t.Errorf("put(%d) on a fresh clone (overwrite %v) allocates %.0f times, want the clone plus %d levels below the root", k, hit, got, depth)
		}
	}
}

// kvKeyAt is a key whose hash's 5-bit groups from the top, root index
// first, are path, above fixed low bits: every group past path is 0.
func kvKeyAt(path ...uint64) int64 {
	h := uint64(0x5eed)
	for level, idx := range path {
		h |= idx << (59 - 5*level)
	}
	return kvUnhash(h)
}

// kvReplicaOf is a replica holding keys, key i valued i.
func kvReplicaOf(keys ...int64) *kvReplica {
	r := &kvReplica{s: KV{}.Init(), m: map[int64]int64{}}
	for i, k := range keys {
		op := Op{Kind: "put", Args: []int64{k, int64(i)}}
		r.s.Apply(op)
		kvModelApply(r.m, op)
	}
	return r
}

func kvPut(k int64) Op { return Op{Kind: "put", Args: []int64{k, k % 1000}} }
func kvDel(k int64) Op { return Op{Kind: "del", Args: []int64{k}} }

// TestKVLevel1Stamp pins the stamp rule at level 1, where a node's edit
// token lives in its header. Inside one window, a second put under a root
// index the window already copied edits that level-1 node in place: it
// allocates only the nodes below level 1 on its own path. A level-1 node
// the window did not build, from KVOf, from an OpenKVWindow already
// closed, or from an earlier window on the same lineage, is copied and
// never edited: the copy carries the window's token, and a Clone taken
// before the window keeps its Key, its headers and its level-1 slots.
func TestKVLevel1Stamp(t *testing.T) {
	leafA, leafB := kvKeyAt(5, 0), kvKeyAt(5, 1) // leaves of one level-1 node
	deepA, deepB := kvKeyAt(7, 0, 0), kvKeyAt(7, 1, 0)
	pairs := map[int64]int64{leafA: 1, leafB: 2, deepA: 3, kvKeyAt(7, 0, 1): 4, deepB: 5, kvKeyAt(7, 1, 1): 6}
	set := func(k int64) Op { return Op{Kind: "put", Args: []int64{k, -7}} }
	src := KVOf(pairs)
	for _, c := range []struct {
		name          string
		first, second int64
		allocs        float64 // the Clone, the first put's path, the second's below level 1
	}{
		{"leaves", leafA, leafB, 1 + 1 + 0},
		{"children", deepA, deepB, 1 + 2 + 1},
	} {
		first, second := set(c.first), set(c.second)
		got := testing.AllocsPerRun(100, func() {
			st := src.Clone()
			w := OpenWindow(st)
			w.Apply(first)
			w.Apply(second)
			w.Close()
			kvSink = st
		})
		if got != c.allocs {
			t.Errorf("%s: two puts under one root index in one window allocate %.0f times, want %.0f", c.name, got, c.allocs)
		}
	}

	for _, c := range []struct {
		name string
		src  func() State
	}{
		{"KVOf", func() State { return KVOf(pairs) }},
		{"OpenKVWindow", func() State { w := OpenKVWindow(pairs); w.Close(); return w.State() }},
		{"earlier-window", func() State {
			s := KVOf(pairs)
			ApplyAll(s, []Op{kvPut(leafA), kvPut(deepA)}, make([]int64, 2))
			return s
		}},
	} {
		for _, onClone := range []bool{false, true} {
			s := c.src()
			fork := s.Clone().(*kvState)
			if onClone {
				s = s.Clone()
			}
			key := fork.Key()
			type frozen struct {
				hdr   kvSlot
				slots []kvSlot
			}
			var before [32]frozen
			for i, p := range fork.kids {
				if p != nil {
					node, _, _ := fork.level1(uint64(i))
					before[i] = frozen{*p, slices.Clone(node)}
				}
			}
			w := OpenWindow(s)
			st := s.(*kvState)
			for _, k := range []int64{leafA, deepA} {
				w.Apply(set(k))
				i := kvHash(k) >> 59
				if _, _, tok := st.level1(i); st.kids[i] == fork.kids[i] || tok != st.edit {
					t.Errorf("%s (clone %v): put(%d) left root entry %d at %p stamped %d, want a copy stamped %d",
						c.name, onClone, k, i, st.kids[i], tok, st.edit)
				}
			}
			w.Close()
			if fork.Key() != key {
				t.Fatalf("%s (clone %v): the window edited a level-1 node it did not build", c.name, onClone)
			}
			for i, p := range fork.kids {
				if p == nil {
					continue
				}
				node, _, _ := fork.level1(uint64(i))
				if *p != before[i].hdr || !slices.Equal(node, before[i].slots) {
					t.Fatalf("%s (clone %v): root entry %d's level-1 node changed under a clone", c.name, onClone, i)
				}
			}
		}
	}
}

// kvCloneEdits runs ops on two clones of src, one op by op and one in a
// single edit window, and returns both. Every response, each clone's Key
// and shape must match a map model, the window must be closed, and
// neither clone may reach the source: its Key and its root entries must
// not change.
func kvCloneEdits(t *testing.T, src *kvReplica, ops []Op) (perOp, windowed *kvReplica) {
	t.Helper()
	root := *src.s.(*kvState)
	before := src.s.Key()
	check := func(what string) {
		t.Helper()
		if st := src.s.(*kvState); src.s.Key() != before || st.kids != root.kids {
			t.Fatalf("%s changed the source", what)
		}
	}
	perOp = src.clone()
	for i, op := range ops {
		if got, want := perOp.s.Apply(op), kvModelApply(perOp.m, op); got != want {
			t.Fatalf("op %d %v: got %d, want %d", i, op, got, want)
		}
		if got, want := perOp.s.Key(), kvModelKey(perOp.m); got != want {
			t.Fatalf("op %d %v: Key\n got %q\nwant %q", i, op, got, want)
		}
		kvCheckShape(t, perOp.s.(*kvState))
		check(fmt.Sprintf("op %d %v on a clone", i, op))
	}
	windowed = src.clone()
	out := make([]int64, len(ops))
	ApplyAll(windowed.s, ops, out)
	for i, op := range ops {
		if want := kvModelApply(windowed.m, op); out[i] != want {
			t.Fatalf("window op %d %v: got %d, want %d", i, op, out[i], want)
		}
	}
	if got, want := windowed.s.Key(), kvModelKey(windowed.m); got != want {
		t.Fatalf("window Key\n got %q\nwant %q", got, want)
	}
	if windowed.s.(*kvState).editing {
		t.Fatal("the window is still open after ApplyAll returned")
	}
	kvCheckShape(t, windowed.s.(*kvState))
	check("a window on a clone")
	return perOp, windowed
}

// TestKVCloneRootEdits: put and del repoint a clone's root entries in
// place, so none of them may reach the source's root. Ops that fill empty
// root entries at both ends and in the middle, overwrite a lone key, grow
// a level-1 node, split a level-1 leaf into a child, copy a child's path,
// shrink a level-1 node to a lone leaf, collapse a child so its last leaf
// moves up into level 1, and delete down to the empty root run on one
// clone op by op and on another in one edit window (kvCloneEdits).
func TestKVCloneRootEdits(t *testing.T) {
	src := kvReplicaOf(kvKeyAt(4, 0), kvKeyAt(9, 1), kvKeyAt(9, 2), kvKeyAt(20, 0))
	ops := []Op{
		kvPut(kvKeyAt(0, 0)), kvPut(kvKeyAt(12, 0)), kvPut(kvKeyAt(31, 0)), // fill: first, middle, last
		kvPut(kvKeyAt(4, 0)),                       // overwrite a lone key
		kvPut(kvKeyAt(9, 3)),                       // grow a level-1 node
		kvPut(kvKeyAt(20, 0, 1)),                   // split a level-1 leaf into a child
		kvPut(kvKeyAt(20, 0, 2)),                   // copy a child's path
		kvDel(kvKeyAt(9, 1)), kvDel(kvKeyAt(9, 2)), // shrink: kvKeyAt(9, 3) is left alone
		kvDel(kvKeyAt(20, 0)), kvDel(kvKeyAt(20, 0, 1)), // collapse: kvKeyAt(20, 0, 2) moves up
		kvDel(kvKeyAt(0, 0)), kvDel(kvKeyAt(31, 0)), // empty both ends
		kvDel(kvKeyAt(4, 0)), kvDel(kvKeyAt(12, 0)), kvDel(kvKeyAt(9, 3)), kvDel(kvKeyAt(20, 0, 2)), // down to empty
	}
	perOp, windowed := kvCloneEdits(t, src, ops)
	for _, c := range []*kvReplica{perOp, windowed} {
		if st := c.s.(*kvState); c.s.Key() != "" || st.kids != [32]*kvSlot{} {
			t.Fatalf("after deleting every key: Key %q, root %v", c.s.Key(), st.kids)
		}
	}
}

// TestKVLoneKeyRootIndex: a key alone under its root index sits in a
// one-slot level-1 node, the only single-leaf node the trie has. Through
// put into an empty entry, overwrite and del, of a new key and of one the
// source already holds alone, on a clone op by op and in one window (where
// a put builds the node, an overwrite edits it in place and a del empties
// the entry), each case must leave its index lone or empty as it says, and
// the source's Key and root entries must not change (kvCloneEdits).
func TestKVLoneKeyRootIndex(t *testing.T) {
	held, fresh := kvKeyAt(4, 0), kvKeyAt(7, 3)
	src := kvReplicaOf(held, kvKeyAt(9, 1), kvKeyAt(9, 2))
	for _, c := range []struct {
		name string
		ops  []Op
		idx  uint64
		lone int64 // the key alone under idx afterwards, or 0 for an empty entry
	}{
		{"put", []Op{kvPut(fresh)}, 7, fresh},
		{"overwrite", []Op{kvPut(fresh), kvPut(fresh)}, 7, fresh},
		{"del", []Op{kvPut(fresh), kvDel(fresh)}, 7, 0},
		{"del-put", []Op{kvPut(fresh), kvPut(fresh), kvDel(fresh), kvPut(fresh)}, 7, fresh},
		{"held/overwrite", []Op{kvPut(held)}, 4, held},
		{"held/del", []Op{kvDel(held)}, 4, 0},
		{"held/grow-shrink", []Op{kvPut(kvKeyAt(4, 1)), kvDel(kvKeyAt(4, 1))}, 4, held},
		{"held/split-collapse", []Op{kvPut(kvKeyAt(4, 0, 1)), kvDel(held)}, 4, kvKeyAt(4, 0, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			perOp, windowed := kvCloneEdits(t, src, c.ops)
			for _, r := range []*kvReplica{perOp, windowed} {
				st := r.s.(*kvState)
				node, bm, _ := st.level1(c.idx)
				switch {
				case c.lone == 0 && st.kids[c.idx] != nil:
					t.Fatalf("root entry %d is not empty: %+v", c.idx, node)
				case c.lone != 0 && (bits.OnesCount32(bm) != 1 || node[0].kids != nil || node[0].key != c.lone):
					t.Fatalf("root entry %d holds %+v, want %d alone", c.idx, node, c.lone)
				}
			}
		})
	}
}

// TestKVDeleteToEmpty: deleting every key, in random order, collapses the
// trie back to the empty root — Key "" and len 0 — from every pool,
// including the deepest shared-prefix paths.
func TestKVDeleteToEmpty(t *testing.T) {
	for name, pool := range kvKeyPools() {
		t.Run(name, func(t *testing.T) {
			s := KV{}.Init()
			for i, k := range pool {
				s.Apply(Op{Kind: "put", Args: []int64{k, int64(i)}})
			}
			kvCheckShape(t, s.(*kvState))
			r := rand.New(rand.NewSource(7))
			for _, i := range r.Perm(len(pool)) {
				if got := s.Apply(Op{Kind: "del", Args: []int64{pool[i]}}); got != int64(i) {
					t.Fatalf("del %d = %d, want %d", pool[i], got, i)
				}
				kvCheckShape(t, s.(*kvState))
			}
			if k := s.Key(); k != "" {
				t.Errorf("Key after deleting everything = %q", k)
			}
			if n := s.Apply(Op{Kind: "len"}); n != 0 {
				t.Errorf("len after deleting everything = %d", n)
			}
			if st := s.(*kvState); st.kids != [32]*kvSlot{} {
				t.Errorf("empty trie keeps a root: %v", st.kids)
			}
		})
	}
}

// TestKVKeyMatchesMap pins Key's byte format against the map-model
// rendering, including negative keys and values equal to Empty.
func TestKVKeyMatchesMap(t *testing.T) {
	m := map[int64]int64{math.MinInt64: 1, -7: Empty, 0: 0, 3: -3, math.MaxInt64: math.MinInt64}
	s := KV{}.Init()
	for k, v := range m {
		s.Apply(Op{Kind: "put", Args: []int64{k, v}})
	}
	if got, want := s.Key(), kvModelKey(m); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	// A stored Empty is still a present key: len counts it and a put over
	// it returns it.
	if got := s.Apply(Op{Kind: "put", Args: []int64{-7, 1}}); got != Empty {
		t.Fatalf("put over stored Empty = %d", got)
	}
	if n := s.Apply(Op{Kind: "len"}); n != int64(len(m)) {
		t.Fatalf("len = %d, want %d", n, len(m))
	}
}

var kvSink State

// TestKVAllocs pins the cost model: get and len allocate nothing, and put
// copies one path below the root (Clone's one allocation is
// TestKVStateHeader's).
func TestKVAllocs(t *testing.T) {
	s := KV{}.Init()
	for k := int64(0); k < 2048; k++ {
		s.Apply(Op{Kind: "put", Args: []int64{k, k}})
	}
	get, length := Op{Kind: "get", Args: []int64{77}}, Op{Kind: "len"}
	if a := testing.AllocsPerRun(100, func() { s.Apply(get); s.Apply(length) }); a != 0 {
		t.Errorf("get+len allocate %.1f times, want 0", a)
	}
	put := Op{Kind: "put", Args: []int64{77, 1}}
	if a := testing.AllocsPerRun(100, func() { s.Apply(put) }); a > kvMaxDepth-1 {
		t.Errorf("overwriting put allocates %.1f times, want at most one per level", a)
	}
}

// TestKVCloneRaceHammer is the sharing contract under -race: goroutines
// clone one frozen populated state and mutate their clones while others
// apply get/len to the original, as the read fast path does to a cached
// state. The original must be untouched.
func TestKVCloneRaceHammer(t *testing.T) {
	orig := KV{}.Init()
	for k := int64(0); k < 512; k++ {
		orig.Apply(Op{Kind: "put", Args: []int64{k, k * 10}})
	}
	want := orig.Key()
	const g, iters = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < 2*g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := r.Int63n(600)
				if w%2 == 1 {
					orig.Apply(Op{Kind: "get", Args: []int64{k}})
					orig.Apply(Op{Kind: "len"})
					continue
				}
				c := orig.Clone()
				c.Apply(Op{Kind: "put", Args: []int64{k, -1}})
				c.Apply(Op{Kind: "del", Args: []int64{r.Int63n(600)}})
				if v := c.Apply(Op{Kind: "get", Args: []int64{k}}); v != -1 && v != Empty {
					t.Errorf("clone lost its own put: get %d = %d", k, v)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := orig.Key(); got != want {
		t.Fatal("mutating clones changed the shared original")
	}
}

// kvFuzzPool is the fuzz target's key space: small dense keys, range edges,
// and deep shared-prefix keys, indexed by one byte.
var kvFuzzPool = func() []int64 {
	pools := kvKeyPools()
	out := append([]int64(nil), pools["dense"][:64]...)
	out = append(out, pools["full-range"][:32]...)
	return append(out, pools["shared-prefix"]...)
}()

// FuzzKVState decodes a byte stream into KV ops, clone points and replica
// switches, and checks every response and the final Keys against map
// models. An op byte with its top bit set joins the open ApplyAll window
// (opening one if none is open); any other op byte, a clone or switch, and
// the end of the stream first flush the window. So fuzzed windows nest in
// cloned lineages, and a byte stream without top-bit op bytes applies op
// by op.
func FuzzKVState(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 4, 1, 5, 0, 6, 0, 2, 7, 4, 2})
	f.Add([]byte{0, 100, 9, 0, 101, 9, 0, 102, 9, 6, 7, 4, 100, 4, 101, 4, 102, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		reps := []*kvReplica{{s: KV{}.Init(), m: map[int64]int64{}}}
		cur := 0
		var win []Op
		flush := func() {
			if len(win) == 0 {
				return
			}
			rp := reps[cur]
			out := make([]int64, len(win))
			ApplyAll(rp.s, win, out)
			for j, op := range win {
				if want := kvModelApply(rp.m, op); out[j] != want {
					t.Fatalf("window op %d %v: got %d, want %d", j, op, out[j], want)
				}
			}
			win = win[:0]
		}
		for i := 0; i < len(data); i++ {
			rp := reps[cur]
			windowed := data[i]&0x80 != 0
			code := data[i] % 8
			var k, v int64
			if code <= 5 && i+1 < len(data) {
				i++
				k = kvFuzzPool[int(data[i])%len(kvFuzzPool)]
			}
			if code <= 2 && i+1 < len(data) {
				i++
				v = int64(data[i]) - 128
			}
			var op Op
			switch code {
			case 0, 1, 2:
				op = Op{Kind: "put", Args: []int64{k, v}}
			case 3:
				op = Op{Kind: "get", Args: []int64{k}}
			case 4:
				op = Op{Kind: "del", Args: []int64{k}}
			case 5:
				op = Op{Kind: "len"}
			case 6:
				flush()
				reps = append(reps, rp.clone())
				continue
			default:
				flush()
				cur = (cur + 1) % len(reps)
				continue
			}
			if windowed {
				win = append(win, op)
				continue
			}
			flush()
			if got, want := rp.s.Apply(op), kvModelApply(rp.m, op); got != want {
				t.Fatalf("step %d %v: got %d, want %d", i, op, got, want)
			}
		}
		flush()
		for i, rp := range reps {
			if got, want := rp.s.Key(), kvModelKey(rp.m); got != want {
				t.Fatalf("replica %d: Key %q, want %q", i, got, want)
			}
			kvCheckShape(t, rp.s.(*kvState))
		}
	})
}

// kvBuildPool is FuzzKVBuild's key space: kvFuzzPool plus two families
// built through the inverse mixer, 32 keys whose hashes differ only in
// their last five bits (chains down to the last levels) and 32 that differ
// only in bits 30-34 (a chain halfway down).
var kvBuildPool = func() []int64 {
	out := append([]int64(nil), kvFuzzPool...)
	deep, mid := kvHash(-4242)&^0x1f, kvHash(777)&^(0x1f<<30)
	for i := uint64(0); i < 32; i++ {
		out = append(out, kvUnhash(deep|i), kvUnhash(mid|i<<30))
	}
	return out
}()

// kvSameShape fails unless a and b are the same trie node for node: equal
// bitmaps, equal leaves in equal slots and internal slots in the same
// places, single-slot chains included. Every internal slot and every
// level-1 header of a must carry edit token tok.
func kvSameShape(t *testing.T, a, b *kvState, tok int64) {
	t.Helper()
	var walk func(na, nb []kvSlot, bma, bmb uint32, level int)
	walk = func(na, nb []kvSlot, bma, bmb uint32, level int) {
		if bma != bmb {
			t.Fatalf("level %d: bitmap %032b, want %032b", level, bma, bmb)
		}
		for i := range na {
			sa, sb := na[i], nb[i]
			switch {
			case (sa.kids == nil) != (sb.kids == nil):
				t.Fatalf("level %d slot %d: internal %v, want %v", level, i, sa.kids != nil, sb.kids != nil)
			case sa.kids == nil:
				if sa.key != sb.key || sa.val != sb.val {
					t.Fatalf("level %d slot %d: leaf %d=%d, want %d=%d", level, i, sa.key, sa.val, sb.key, sb.val)
				}
			default:
				if sa.val != tok {
					t.Fatalf("level %d slot %d: internal slot stamped %d, want edit token %d", level, i, sa.val, tok)
				}
				bma, bmb := uint32(sa.key), uint32(sb.key)
				walk(kvNode(sa.kids, bma, 0), kvNode(sb.kids, bmb, 0), bma, bmb, level+1)
			}
		}
	}
	for i := range a.kids {
		na, bma, toka := a.level1(uint64(i))
		nb, bmb, _ := b.level1(uint64(i))
		if a.kids[i] != nil && int64(toka) != tok {
			t.Fatalf("root entry %d: header stamped %d, want edit token %d", i, toka, tok)
		}
		walk(na, nb, bma, bmb, 1)
	}
	if a.n != b.n {
		t.Fatalf("len %d, want %d", a.n, b.n)
	}
}

// kvBuildOp decodes FuzzKVBuild's op at ops[i:i+2].
func kvBuildOp(ops []byte, i int) Op {
	k := kvBuildPool[int(ops[i+1])%len(kvBuildPool)]
	if ops[i]&1 != 0 {
		return Op{Kind: "put", Args: []int64{k, int64(i)}}
	}
	return Op{Kind: "del", Args: []int64{k}}
}

// FuzzKVBuild checks the one-pass KVOf against puts into an empty state.
// data[0] is the count of pair bytes that follow it, each one a key of
// kvBuildPool (its value is the byte's position); KVOf of those pairs must
// have the same Key and the same trie, node for node, as their puts one
// by one. The rest of data is put and del ops on the built state, two
// bytes each: a flag byte, whose bit 0 picks put over del and whose bit 1
// puts the op in the open edit window (opening one if none is open) where
// a clear bit 1 closes it first and applies op by op, then a key of the
// pool (a put's value is the op's position). Every response and the final
// Key must match a map model, the trie must keep its shape invariants, and
// a Clone of the built state taken before the ops must keep its Key.
//
// The same pairs built inside a window (OpenKVWindow) must give the same
// trie with every internal slot stamped with the window's token; the ops,
// all inside that window, edit the build's nodes in place and must match a
// map model of their own; and a Clone taken after Close must keep its Key
// while the ops run on the state again, in and out of later windows.
func FuzzKVBuild(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 2, 0, 3, 1, 0, 5})
	all := []byte{255}
	for i := 0; i < 255; i++ {
		all = append(all, byte(i))
	}
	f.Add(append(all, 1, 100, 3, 101, 2, 102, 0, 3, 3, 3))
	d := byte(len(kvFuzzPool))
	deep := []byte{64}
	for i := byte(0); i < 64; i++ {
		deep = append(deep, d+i)
	}
	f.Add(append(deep, 1, d, 3, d+2, 2, d+4, 2, d+6, 0, d+1, 1, d+60))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		np := min(int(data[0]), len(data)-1)
		pairs, model := map[int64]int64{}, map[int64]int64{}
		ref := KV{}.Init()
		for i, b := range data[1 : 1+np] {
			k := kvBuildPool[int(b)%len(kvBuildPool)]
			pairs[k], model[k] = int64(i), int64(i)
			ref.Apply(Op{Kind: "put", Args: []int64{k, int64(i)}})
		}
		built := KVOf(pairs)
		if got, want := built.Key(), ref.Key(); got != want {
			t.Fatalf("KVOf Key\n got %q\nwant %q", got, want)
		}
		kvSameShape(t, built.(*kvState), ref.(*kvState), 0)
		kvCheckShape(t, built.(*kvState))

		fork := built.Clone()
		before := fork.Key()
		var win Window
		open := false
		ops := data[1+np:]
		for i := 0; i+1 < len(ops); i += 2 {
			op := kvBuildOp(ops, i)
			var got int64
			switch windowed := ops[i]&2 != 0; {
			case windowed && !open:
				win, open = OpenWindow(built), true
				fallthrough
			case windowed:
				got = win.Apply(op)
			default:
				if open {
					win.Close()
					open = false
				}
				got = built.Apply(op)
			}
			if want := kvModelApply(model, op); got != want {
				t.Fatalf("op %d %v: got %d, want %d", i, op, got, want)
			}
		}
		if open {
			win.Close()
		}
		if got, want := built.Key(), kvModelKey(model); got != want {
			t.Fatalf("after the ops: Key\n got %q\nwant %q", got, want)
		}
		kvCheckShape(t, built.(*kvState))
		if fork.Key() != before {
			t.Fatal("a clone of the built state changed while the ops ran on it")
		}

		bw := OpenKVWindow(pairs)
		owned := bw.State().(*kvState)
		kvSameShape(t, owned, ref.(*kvState), int64(owned.edit))
		model = maps.Clone(pairs)
		for i := 0; i+1 < len(ops); i += 2 {
			op := kvBuildOp(ops, i)
			if got, want := bw.Apply(op), kvModelApply(model, op); got != want {
				t.Fatalf("windowed build, op %d %v: got %d, want %d", i, op, got, want)
			}
		}
		bw.Close()
		if got, want := owned.Key(), kvModelKey(model); got != want {
			t.Fatalf("windowed build after the ops: Key\n got %q\nwant %q", got, want)
		}
		kvCheckShape(t, owned)
		fork, before = owned.Clone(), owned.Key()
		open = false
		for i := 0; i+1 < len(ops); i += 2 {
			switch windowed := ops[i]&2 != 0; {
			case windowed && !open:
				win, open = OpenWindow(owned), true
			case !windowed && open:
				win.Close()
				open = false
			}
			owned.Apply(kvBuildOp(ops, i))
		}
		if open {
			win.Close()
		}
		if fork.Key() != before {
			t.Fatal("a clone of the window-built state taken after Close changed while the ops ran on it")
		}
	})
}
