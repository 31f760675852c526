package main

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"waitfree/internal/seqspec"
)

// Values carry their key and a per-key version, so a reply can be checked
// on its own: value = version<<verShift | key. Version 0 is the preload.
const verShift = 20

func valueOf(key int, ver uint32) int64 { return int64(ver)<<verShift | int64(key) }
func versionOf(v int64) uint32          { return uint32(v >> verShift) }
func keyOf(v int64) int                 { return int(v & (1<<verShift - 1)) }

// How a reply is checked.
const (
	checkExact = iota // reply == want
	checkCross        // a get of another lane's key: see oracle.crossOK
)

// oracle is the model the system under test is checked against. Writes are
// partitioned by lane (lane l writes only keys ≡ l mod lanes), so program
// order alone fixes every put's returned old value, every own-key get and
// every key's final value; val holds that model. A get of another lane's
// key races with its owner, so it is checked against a window instead: at
// least the newest version acked to the owner before the get was sent
// (linearizability), at most the newest version the owner has sent.
type oracle struct {
	keys   int
	val    []int64         // model value of each key, as its owner has issued it
	issued []atomic.Uint32 // newest version its owner has sent
	acked  []atomic.Uint32 // newest version acked to its owner
}

func newOracle(keys int) *oracle {
	return &oracle{keys: keys, val: make([]int64, keys),
		issued: make([]atomic.Uint32, keys), acked: make([]atomic.Uint32, keys)}
}

func (o *oracle) crossOK(key int, lo uint32, reply int64) bool {
	if reply < 0 || keyOf(reply) != key {
		return false
	}
	ver := versionOf(reply)
	return ver >= lo && ver <= o.issued[key].Load()
}

// stream is one lane's op sequence for one phase with everything needed to
// check and time it, in preallocated arrays so the timed region allocates
// nothing of its own.
type stream struct {
	lane  int
	ops   []seqspec.Op
	args  []int64 // backing store of ops[i].Args
	want  []int64 // checkExact: the reply; checkCross: filled at send time
	check []uint8
	sendT []int64 // ns since the run's epoch; written by the sender, read by the receiver
	lat   []int64 // reply time - send time (- due time when paced)
	due   []int64 // open-loop schedule in ns since the phase started; nil in a closed loop
	late  []int64 // paced only: how late the generator sent each op
	// traced windows also keep when the request's flush hit the socket
	flushT []int64

	failed   int
	firstErr string
}

func (st *stream) reset(n int) {
	// An op handed to the library stays referenced from the decided log
	// (helpers replay it), so its arguments are never written again: every
	// stream gets a new backing array.
	st.args = make([]int64, 2*n)
	if cap(st.ops) < n {
		st.ops = make([]seqspec.Op, n)
		st.want = make([]int64, n)
		st.check = make([]uint8, n)
		st.sendT = make([]int64, n)
		st.lat = make([]int64, n)
	}
	st.ops, st.want, st.check = st.ops[:n], st.want[:n], st.check[:n]
	st.sendT, st.lat = st.sendT[:n], st.lat[:n]
	st.due, st.late, st.flushT = nil, nil, nil
	st.failed, st.firstErr = 0, ""
}

func (st *stream) fail(i int, format string, a ...any) {
	st.failed++
	if st.firstErr == "" {
		st.firstErr = fmt.Sprintf("lane %d op %d %v: ", st.lane, i, st.ops[i]) + fmt.Sprintf(format, a...)
	}
}

// verify checks reply v of op i. It runs on the receiving side.
func (st *stream) verify(o *oracle, i int, v int64) {
	op := &st.ops[i]
	switch st.check[i] {
	case checkExact:
		if v != st.want[i] {
			st.fail(i, "got %d, want %d", v, st.want[i])
		}
		if op.Kind == "put" {
			o.acked[op.Args[0]].Store(versionOf(op.Args[1]))
		}
	case checkCross:
		key, lo := int(op.Args[0]), uint32(atomic.LoadInt64(&st.want[i]))
		if !o.crossOK(key, lo, v) {
			st.fail(i, "got %d, want key %d at version %d..%d", v, key, lo, o.issued[key].Load())
		}
	}
}

// onSend publishes what the checks of other lanes need, just before op i
// goes out.
func (st *stream) onSend(o *oracle, i int) {
	op := &st.ops[i]
	if op.Kind == "put" {
		o.issued[op.Args[0]].Store(versionOf(op.Args[1]))
	} else if st.check[i] == checkCross {
		atomic.StoreInt64(&st.want[i], int64(o.acked[op.Args[0]].Load()))
	}
}

func (st *stream) setPut(o *oracle, i, key int) {
	old := o.val[key]
	nv := valueOf(key, versionOf(old)+1)
	o.val[key] = nv
	a := st.args[2*i : 2*i+2 : 2*i+2]
	a[0], a[1] = int64(key), nv
	st.ops[i] = seqspec.Op{Kind: "put", Args: a}
	st.want[i], st.check[i] = old, checkExact
}

func (st *stream) setGet(o *oracle, i, key int) {
	a := st.args[2*i : 2*i+1 : 2*i+1]
	a[0] = int64(key)
	st.ops[i] = seqspec.Op{Kind: "get", Args: a}
	if key%lanes == st.lane {
		st.want[i], st.check[i] = o.val[key], checkExact
	} else {
		st.want[i], st.check[i] = 0, checkCross
	}
}

func (st *stream) setLen(o *oracle, i int) {
	st.ops[i] = seqspec.Op{Kind: "len"}
	st.want[i], st.check[i] = int64(o.keys), checkExact
}

// ownKey draws one of the lane's own keys uniformly.
func ownKey(r *rng, keys, lane int) int { return r.intn(keys/lanes)*lanes + lane }

// generate fills st with n ops of the mix for its lane, advancing the model.
// The stream must be run before the next one for the lane is generated.
func generate(st *stream, o *oracle, mix mixKind, r *rng, n int) {
	st.reset(n)
	for i := 0; i < n; i++ {
		switch mix {
		case mixReadMostly, mixHalf:
			putOf := 10
			if mix == mixHalf {
				putOf = 2
			}
			if r.intn(putOf) == 0 {
				st.setPut(o, i, ownKey(r, o.keys, st.lane))
			} else {
				st.setGet(o, i, r.intn(o.keys))
			}
		case mixPutOnly:
			st.setPut(o, i, ownKey(r, o.keys, st.lane))
		case mixRYW:
			// The cycle restarts with each stream; len takes every 64th slot.
			switch {
			case i%64 == 63:
				st.setLen(o, i)
			case i%3 == 0:
				st.setPut(o, i, ownKey(r, o.keys, st.lane))
			case i%3 == 1 && i > 0 && st.ops[i-1].Kind == "put":
				st.setGet(o, i, int(st.ops[i-1].Args[0]))
			default:
				st.setGet(o, i, ownKey(r, o.keys, st.lane))
			}
		}
	}
}

// preloadStream puts every own key of the lane once, in key order, at
// version 0. The instance is fresh, so every reply is Empty.
func preloadStream(st *stream, o *oracle) {
	n := (o.keys - st.lane + lanes - 1) / lanes
	st.reset(n)
	for i := 0; i < n; i++ {
		key := i*lanes + st.lane
		o.val[key] = valueOf(key, 0)
		a := st.args[2*i : 2*i+2 : 2*i+2]
		a[0], a[1] = int64(key), o.val[key]
		st.ops[i] = seqspec.Op{Kind: "put", Args: a}
		st.want[i], st.check[i] = seqspec.Empty, checkExact
	}
}

// readbackStream gets every own key of the lane; each reply must equal the
// model exactly.
func readbackStream(st *stream, o *oracle) {
	n := (o.keys - st.lane + lanes - 1) / lanes
	st.reset(n)
	for i := 0; i < n; i++ {
		st.setGet(o, i, i*lanes+st.lane)
	}
}

// hashStreams folds the ops of streams into one FNV-1a hash: the identity
// of an op stream, printed so two runs can be told to have done equal work.
func hashStreams(h uint64, streams []*stream) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	put(h)
	for _, st := range streams {
		for i := range st.ops {
			f.Write([]byte(st.ops[i].Kind))
			for _, a := range st.ops[i].Args {
				put(uint64(a))
			}
		}
	}
	return f.Sum64()
}
