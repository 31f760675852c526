package seqspec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
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

// kvCheckShape asserts the trie's structural invariants: every leaf sits on
// its hash's path, no node is deeper than kvMaxDepth, every non-root node
// has two or more slots or a single internal slot (collapse on delete), and
// the cached length matches the leaf count. It returns the deepest leaf's
// level.
func kvCheckShape(t *testing.T, s *kvState) (deepest int) {
	t.Helper()
	leaves := 0
	var walk func(node []kvSlot, bm uint32, level int, prefix uint64)
	walk = func(node []kvSlot, bm uint32, level int, prefix uint64) {
		if level >= kvMaxDepth {
			t.Fatalf("node at level %d, beyond kvMaxDepth", level)
		}
		if bits.OnesCount32(bm) != len(node) {
			t.Fatalf("level %d: bitmap %b has %d bits for %d slots", level, bm, bits.OnesCount32(bm), len(node))
		}
		if level > 0 && (len(node) == 0 || len(node) == 1 && node[0].kids == nil) {
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
				if got := kvHash(sl.key) << (5 * level) >> 59; got != idx || (level > 0 && kvHash(sl.key)>>(64-5*level) != prefix) {
					t.Fatalf("leaf %d at level %d slot %d is off its hash path", sl.key, level, idx)
				}
				continue
			}
			walk(sl.kids, uint32(sl.key), level+1, p)
		}
	}
	walk(s.root, s.bm, 0, 0)
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

// TestKVStateDifferential drives random put/get/del/len against a map
// model over three key pools, cloning at random points after which both
// sides keep mutating; every response and every live replica's Key and
// KVPairs must match its own model.
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
				k := pool[r.Intn(len(pool))]
				var op Op
				switch r.Intn(8) {
				case 0, 1, 2:
					op = Op{Kind: "put", Args: []int64{k, r.Int63n(1000) - 500}}
				case 3, 4:
					op = Op{Kind: "get", Args: []int64{k}}
				case 5, 6:
					op = Op{Kind: "del", Args: []int64{k}}
				default:
					op = Op{Kind: "len"}
				}
				if got, want := rp.s.Apply(op), kvModelApply(rp.m, op); got != want {
					t.Fatalf("op %d %v: got %d, want %d", i, op, got, want)
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
			if st := s.(*kvState); st.root != nil || st.bm != 0 {
				t.Errorf("empty trie keeps a root: %d slots, bitmap %b", len(st.root), st.bm)
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

// TestKVAllocs pins the cost model: get and len allocate nothing, Clone is
// one allocation (the state header), and put copies one path.
func TestKVAllocs(t *testing.T) {
	s := KV{}.Init()
	for k := int64(0); k < 2048; k++ {
		s.Apply(Op{Kind: "put", Args: []int64{k, k}})
	}
	get, length := Op{Kind: "get", Args: []int64{77}}, Op{Kind: "len"}
	if a := testing.AllocsPerRun(100, func() { s.Apply(get); s.Apply(length) }); a != 0 {
		t.Errorf("get+len allocate %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { kvSink = s.Clone() }); a != 1 {
		t.Errorf("Clone allocates %.1f times, want 1", a)
	}
	put := Op{Kind: "put", Args: []int64{77, 1}}
	if a := testing.AllocsPerRun(100, func() { s.Apply(put) }); a > kvMaxDepth {
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
// models.
func FuzzKVState(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 4, 1, 5, 0, 6, 0, 2, 7, 4, 2})
	f.Add([]byte{0, 100, 9, 0, 101, 9, 0, 102, 9, 6, 7, 4, 100, 4, 101, 4, 102, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		reps := []*kvReplica{{s: KV{}.Init(), m: map[int64]int64{}}}
		cur := 0
		for i := 0; i < len(data); i++ {
			rp := reps[cur]
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
				reps = append(reps, rp.clone())
				continue
			default:
				cur = (cur + 1) % len(reps)
				continue
			}
			if got, want := rp.s.Apply(op), kvModelApply(rp.m, op); got != want {
				t.Fatalf("step %d %v: got %d, want %d", i, op, got, want)
			}
		}
		for i, rp := range reps {
			if got, want := rp.s.Key(), kvModelKey(rp.m); got != want {
				t.Fatalf("replica %d: Key %q, want %q", i, got, want)
			}
			kvCheckShape(t, rp.s.(*kvState))
		}
	})
}
