package seqspec

import (
	"strconv"
	"strings"
	"testing"
)

// specContract drives the cross-spec ReadOnly contract test: setup ops
// build a non-trivial state, probes are operations the spec classifies as
// ReadOnly (including out-of-range and missing-key probes, since ReadOnly
// must hold for every argument, not just the happy path).
type specContract struct {
	obj    Object
	setup  []Op
	probes []Op
}

var contracts = []specContract{
	{Register{InitVal: 3},
		[]Op{{Kind: "write", Args: []int64{7}}},
		[]Op{{Kind: "read"}}},
	{Counter{},
		[]Op{{Kind: "inc"}, {Kind: "add", Args: []int64{5}}},
		[]Op{{Kind: "get"}}},
	{Queue{},
		[]Op{{Kind: "enq", Args: []int64{1}}, {Kind: "enq", Args: []int64{2}}},
		[]Op{{Kind: "peek"}, {Kind: "len"}}},
	{Stack{},
		[]Op{{Kind: "push", Args: []int64{1}}, {Kind: "push", Args: []int64{2}}},
		[]Op{{Kind: "len"}}},
	{Set{},
		[]Op{{Kind: "insert", Args: []int64{3}}, {Kind: "insert", Args: []int64{1}}},
		[]Op{{Kind: "contains", Args: []int64{3}}, {Kind: "contains", Args: []int64{99}}, {Kind: "len"}}},
	{PQueue{},
		[]Op{{Kind: "insert", Args: []int64{5}}, {Kind: "insert", Args: []int64{2}}},
		[]Op{{Kind: "min"}, {Kind: "len"}}},
	{List{},
		[]Op{{Kind: "cons", Args: []int64{1}}, {Kind: "cons", Args: []int64{2}}},
		[]Op{{Kind: "head"}, {Kind: "nth", Args: []int64{1}}, {Kind: "nth", Args: []int64{5}}, {Kind: "len"}}},
	{KV{},
		[]Op{{Kind: "put", Args: []int64{1, 10}}, {Kind: "put", Args: []int64{2, 20}}},
		[]Op{{Kind: "get", Args: []int64{1}}, {Kind: "get", Args: []int64{9}}, {Kind: "len"}}},
	{Bank{Accounts: 4},
		[]Op{{Kind: "deposit", Args: []int64{0, 10}}, {Kind: "deposit", Args: []int64{1, 5}}},
		[]Op{{Kind: "balance", Args: []int64{0}}, {Kind: "balance", Args: []int64{9}}, {Kind: "total"}}},
}

// TestReadOnlyContract: for every spec and every ReadOnly operation, Apply
// must leave the state bit-identical (witnessed by Key) and respond
// deterministically, on both the empty initial state and a populated one.
// This is the contract the universal construction's read fast path leans
// on: ReadOnly ops are applied to shared, no-longer-cloned cached states,
// so a violation here is a data race there.
func TestReadOnlyContract(t *testing.T) {
	if len(contracts) != 9 {
		t.Fatalf("contract table covers %d specs, want all 9", len(contracts))
	}
	for _, c := range contracts {
		c := c
		t.Run(c.obj.Name(), func(t *testing.T) {
			states := map[string]State{"empty": c.obj.Init()}
			populated := c.obj.Init()
			for _, op := range c.setup {
				populated.Apply(op)
			}
			states["populated"] = populated
			for label, s := range states {
				for _, probe := range c.probes {
					if !c.obj.ReadOnly(probe) {
						t.Errorf("%s: probe %v is not classified ReadOnly", label, probe)
						continue
					}
					before := s.Key()
					r1 := s.Apply(probe)
					if after := s.Key(); after != before {
						t.Errorf("%s: ReadOnly %v mutated state: Key %q -> %q", label, probe, before, after)
					}
					if r2 := s.Apply(probe); r2 != r1 {
						t.Errorf("%s: ReadOnly %v not deterministic: %d then %d", label, probe, r1, r2)
					}
				}
			}
			// No mutating op may be classified ReadOnly: every setup op must
			// be on the write path.
			for _, op := range c.setup {
				if c.obj.ReadOnly(op) {
					t.Errorf("mutating op %v classified ReadOnly", op)
				}
			}
		})
	}
}

// opGens draws pseudo-random operations per spec, covering every op kind
// including the mutating ones, for the determinism contract test.
var opGens = map[string]func(r uint64) Op{
	"register": pick("read;write 1"),
	"counter":  pick("get;inc;add 1"),
	"queue":    pick("enq 1;deq;peek;len"),
	"stack":    pick("push 1;pop;len"),
	"set":      pick("insert 1;contains 1;removeMin;len"),
	"pqueue":   pick("insert 1;deleteMin;min;len"),
	"list":     pick("cons 1;head;nth 1;len"),
	"kv":       pick("put 2;get 1;del 1;len"),
	"bank":     pick("deposit 2;withdraw 2;transfer 3;balance 1;total"),
}

// pick parses "kind argc;kind argc;..." into a generator that chooses a
// kind and fills its arguments from the random word.
func pick(table string) func(r uint64) Op {
	type shape struct {
		kind string
		argc int
	}
	var shapes []shape
	for _, f := range strings.Split(table, ";") {
		parts := strings.Fields(f)
		s := shape{kind: parts[0]}
		if len(parts) > 1 {
			s.argc, _ = strconv.Atoi(parts[1])
		}
		shapes = append(shapes, s)
	}
	return func(r uint64) Op {
		s := shapes[r%uint64(len(shapes))]
		op := Op{Kind: s.kind}
		for i := 0; i < s.argc; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			op.Args = append(op.Args, int64((r>>33)%16))
		}
		return op
	}
}

// TestApplyDeterminismContract is the determinism contract the universal
// construction's replays rest on: two replicas that apply the same
// operation sequence from the same initial state must produce
// bit-identical responses and states, so one process may continue from
// another's snapshot. Checked on independent Init replicas and on a mid-sequence
// Clone for every spec.
func TestApplyDeterminismContract(t *testing.T) {
	if len(opGens) != len(contracts) {
		t.Fatalf("opGens covers %d specs, contract table %d", len(opGens), len(contracts))
	}
	for _, c := range contracts {
		c := c
		t.Run(c.obj.Name(), func(t *testing.T) {
			gen := opGens[c.obj.Name()]
			if gen == nil {
				t.Fatalf("no op generator for %s", c.obj.Name())
			}
			const nops = 200
			ops := make([]Op, nops)
			r := uint64(0x9e3779b97f4a7c15)
			for i := range ops {
				r = r*6364136223846793005 + 1442695040888963407
				ops[i] = gen(r >> 30)
			}
			applyAll := func(s State, ops []Op) []int64 {
				out := make([]int64, len(ops))
				ApplyAll(s, ops, out)
				return out
			}
			a, b := c.obj.Init(), c.obj.Init()
			ra := applyAll(a, ops[:nops/2])
			rb := applyAll(b, ops[:nops/2])
			// A clone taken mid-sequence is a third replica: the snapshot
			// path of the batched executor.
			cl := a.Clone()
			ra = append(ra, applyAll(a, ops[nops/2:])...)
			rb = append(rb, applyAll(b, ops[nops/2:])...)
			rc := applyAll(cl, ops[nops/2:])
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("op %d %v: replica responses diverge: %d vs %d", i, ops[i], ra[i], rb[i])
				}
			}
			for i, v := range rc {
				if v != ra[nops/2+i] {
					t.Fatalf("op %d %v: clone response diverges: %d vs %d", nops/2+i, ops[nops/2+i], v, ra[nops/2+i])
				}
			}
			if a.Key() != b.Key() || a.Key() != cl.Key() {
				t.Fatalf("final states diverge: %q / %q / %q", a.Key(), b.Key(), cl.Key())
			}
		})
	}
}

// TestStackPopCloneIndependence pins the regression the pop truncation fix
// guards: popping and re-pushing on a state must never leak through to a
// clone taken before the pop, and pop itself must keep LIFO semantics.
func TestStackPopCloneIndependence(t *testing.T) {
	s := Stack{}.Init()
	s.Apply(Op{Kind: "push", Args: []int64{1}})
	s.Apply(Op{Kind: "push", Args: []int64{2}})
	c := s.Clone()
	if v := s.Apply(Op{Kind: "pop"}); v != 2 {
		t.Fatalf("pop = %d, want 2", v)
	}
	s.Apply(Op{Kind: "push", Args: []int64{99}})
	if got, want := c.Key(), "1,2,"; got != want {
		t.Errorf("clone disturbed by pop+push on the original: Key = %q, want %q", got, want)
	}
	if v := c.Apply(Op{Kind: "pop"}); v != 2 {
		t.Errorf("clone pop = %d, want 2", v)
	}
	if v := s.Apply(Op{Kind: "pop"}); v != 99 {
		t.Errorf("original pop = %d, want 99", v)
	}
	if v := s.Apply(Op{Kind: "pop"}); v != 1 {
		t.Errorf("original pop = %d, want 1", v)
	}
	if v := s.Apply(Op{Kind: "pop"}); v != Empty {
		t.Errorf("pop on empty = %d, want Empty", v)
	}
}
