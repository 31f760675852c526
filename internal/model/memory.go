package model

import (
	"fmt"
	"strconv"
)

// RMWFn is a read-modify-write function family in the sense of Section 3.2:
// RMW(r, f) atomically replaces register r's value v with Apply(v, a, b) and
// returns v. The a and b parameters carry per-invocation operands (for
// example the swapped-in value, the fetch-and-add addend, or the
// compare-and-swap pair); parameterless functions ignore them.
type RMWFn struct {
	// Name identifies the function family ("test-and-set", "swap", ...).
	Name string
	// Apply computes the new register value from the current one.
	Apply func(cur, a, b Value) Value
	// Operands lists the operand vectors the synthesizer may supply, one
	// {a, b} pair per menu entry. Parameterless families list {None, None}.
	Operands [][2]Value
}

// Standard read-modify-write families over small domains. Read is the
// trivial (identity) family; Write is the constant family. Together with
// TestAndSet, SwapRMW and FetchAndAdd they form an interfering set
// (Theorem 6); CompareAndSwap does not interfere and is universal
// (Theorem 7).
var (
	// TestAndSet sets the register to 1 and returns the old value.
	TestAndSet = RMWFn{
		Name:     "test-and-set",
		Apply:    func(cur, _, _ Value) Value { return 1 },
		Operands: [][2]Value{{None, None}},
	}
	// SwapRMW stores operand a and returns the old value.
	SwapRMW = RMWFn{
		Name:     "swap",
		Apply:    func(_, a, _ Value) Value { return a },
		Operands: [][2]Value{{0, None}, {1, None}, {2, None}},
	}
	// FetchAndAdd adds operand a and returns the old value.
	FetchAndAdd = RMWFn{
		Name:     "fetch-and-add",
		Apply:    func(cur, a, _ Value) Value { return cur + a },
		Operands: [][2]Value{{1, None}, {2, None}},
	}
	// CompareAndSwap stores b if the current value equals a, and returns
	// the old value either way.
	CompareAndSwap = RMWFn{
		Name: "compare-and-swap",
		Apply: func(cur, a, b Value) Value {
			if cur == a {
				return b
			}
			return cur
		},
		Operands: [][2]Value{{None, 0}, {None, 1}, {0, 1}, {1, 0}},
	}
)

// Memory is the shared-memory model object: a fixed vector of registers
// supporting (configurably) plain reads and writes, read-modify-write
// families, the memory-to-memory move and swap of Section 3.5, and the
// atomic m-register assignment of Section 3.6.
//
// Operations:
//
//	read(i)          -> value of register i
//	write(i,v)       -> None; sets register i to v
//	rmw(i,f,k)       -> old value; applies family f with operand row k
//	move(i,j)        -> None; register j := register i, atomically
//	swapm(i,j)       -> None; exchanges registers i and j, atomically
//	assign(s,v)      -> None; sets every register in assignment set s to v
type Memory struct {
	name string
	init []Value
	fns  []RMWFn
	// assignSets are the register index sets available to the assign op.
	assignSets [][]int
	// menuValues bounds the value domain offered to the synthesizer.
	menuValues []Value
	allowRW    bool
	allowM2M   bool
}

// MemoryOption configures a Memory.
type MemoryOption func(*Memory)

// WithRMW makes the given read-modify-write families available.
func WithRMW(fns ...RMWFn) MemoryOption {
	return func(m *Memory) { m.fns = append(m.fns, fns...) }
}

// WithAssignSets makes atomic multi-register assignment available on the
// given index sets.
func WithAssignSets(sets ...[]int) MemoryOption {
	return func(m *Memory) { m.assignSets = append(m.assignSets, sets...) }
}

// WithM2M makes memory-to-memory move and swap available.
func WithM2M() MemoryOption {
	return func(m *Memory) { m.allowM2M = true }
}

// WithoutRW removes plain read/write from the operation menu (reads remain
// available to protocols that invoke them explicitly; this only affects the
// synthesizer's menu).
func WithoutRW() MemoryOption {
	return func(m *Memory) { m.allowRW = false }
}

// WithMenuValues sets the value domain the synthesizer may write.
func WithMenuValues(vs ...Value) MemoryOption {
	return func(m *Memory) { m.menuValues = vs }
}

// NewMemory builds a Memory with the given name and initial register
// contents. By default only read and write are enabled.
func NewMemory(name string, init []Value, opts ...MemoryOption) *Memory {
	m := &Memory{
		name:       name,
		init:       append([]Value(nil), init...),
		menuValues: []Value{0, 1},
		allowRW:    true,
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Name implements Object.
func (m *Memory) Name() string { return m.name }

// Size returns the number of registers.
func (m *Memory) Size() int { return len(m.init) }

// Init implements Object.
func (m *Memory) Init() string { return EncodeValues(m.init) }

// Apply implements Object. It decodes into a stack buffer, and returns
// state itself when a read or a write of the value already there leaves
// the registers unchanged.
func (m *Memory) Apply(state string, op Op) (string, Value) {
	var buf [8]Value
	regs := appendValues(buf[:0], state)
	resp := None
	switch op.Kind {
	case "read":
		return state, regs[op.A]
	case "write":
		if regs[op.A] == op.B {
			return state, None
		}
		regs[op.A] = op.B
	case "rmw":
		f := m.fns[op.B]
		old := regs[op.A]
		var a, b Value = None, None
		if op.C != None {
			row := f.Operands[op.C]
			a, b = row[0], row[1]
		}
		regs[op.A] = f.Apply(old, a, b)
		resp = old
	case "move":
		regs[op.B] = regs[op.A]
	case "swapm":
		regs[op.A], regs[op.B] = regs[op.B], regs[op.A]
	case "assign":
		for _, idx := range m.assignSets[op.A] {
			regs[idx] = op.B
		}
	default:
		panic(fmt.Sprintf("model: memory %q: unknown op kind %q", m.name, op.Kind))
	}
	return EncodeValues(regs), resp
}

// FnIndex returns the menu index of the named RMW family, for protocols that
// build rmw ops directly.
func (m *Memory) FnIndex(name string) Value {
	for i, f := range m.fns {
		if f.Name == name {
			return Value(i)
		}
	}
	panic("model: memory " + m.name + ": no RMW family " + name)
}

// Ops implements Object: the finite menu offered to the synthesizer.
func (m *Memory) Ops(n, pid int) []Op {
	var ops []Op
	for i := range m.init {
		r := Value(i)
		if m.allowRW {
			ops = append(ops, Op{Kind: "read", A: r, B: None, C: None})
			for _, v := range m.menuValues {
				ops = append(ops, Op{Kind: "write", A: r, B: v, C: None})
			}
		}
		for fi, f := range m.fns {
			for oi := range f.Operands {
				ops = append(ops, Op{Kind: "rmw", A: r, B: Value(fi), C: Value(oi)})
			}
		}
	}
	if m.allowM2M {
		for i := range m.init {
			for j := range m.init {
				if i == j {
					continue
				}
				ops = append(ops,
					Op{Kind: "move", A: Value(i), B: Value(j), C: None},
					Op{Kind: "swapm", A: Value(i), B: Value(j), C: None})
			}
		}
	}
	for s := range m.assignSets {
		for _, v := range m.menuValues {
			ops = append(ops, Op{Kind: "assign", A: Value(s), B: v, C: None})
		}
	}
	return ops
}

// RegisterName renders register index i for reports.
func RegisterName(i Value) string { return "r" + strconv.Itoa(int(i)) }
