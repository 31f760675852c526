// Package model defines the deterministic object and protocol model used by
// the exhaustive checker (internal/check) and the protocol synthesizer
// (internal/synth).
//
// It is a direct, executable rendering of Section 2 of Herlihy's PODC 1988
// paper: shared objects are linearizable and specified sequentially by a
// total, deterministic transition function; processes are sequential threads
// that alternate invocations and responses. Because all objects are
// linearizable and all operations are total, each protocol step can be
// modeled as one complete (atomic) operation, which is what makes exhaustive
// state-space exploration tractable.
//
// States — both object states and per-process local states — are encoded as
// strings so they can be hashed, compared, and memoized without reflection.
package model

import (
	"strconv"
	"strings"
)

// Value is the value domain of the model world: small integers. Process
// identifiers, register contents, and queue items are all Values.
type Value int

// None is the distinguished "⊥" value used by the paper for uninitialized
// registers and empty-queue responses.
const None Value = -1

// Op is a single operation invocation on a shared object. Kind selects the
// operation; A, B, and C are its arguments (unused arguments are None).
// Op is a comparable value type so it can key maps in the synthesizer.
type Op struct {
	Kind    string
	A, B, C Value
}

// String renders an Op compactly, e.g. "write(1,0)".
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(o.Kind)
	b.WriteByte('(')
	args := []Value{o.A, o.B, o.C}
	n := 3
	for n > 0 && args[n-1] == None {
		n--
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(args[i])))
	}
	b.WriteByte(')')
	return b.String()
}

// Object is a deterministic linearizable shared object, given by its
// sequential specification. Apply must be total: every operation has a
// response in every state (per Section 2.2 of the paper, partial operations
// such as a blocking deq are replaced by total ones that return an error
// value).
type Object interface {
	// Name identifies the object type in reports.
	Name() string
	// Init returns the encoded initial state.
	Init() string
	// Apply executes op on the encoded state, returning the new encoded
	// state and the response value.
	Apply(state string, op Op) (string, Value)
	// Ops enumerates the finite operation menu available to process pid in
	// an n-process system. It is used by the synthesizer; checker-only
	// objects may return nil.
	Ops(n, pid int) []Op
}

// ActionKind discriminates protocol actions.
type ActionKind int

const (
	// ActInvoke means the process invokes Action.Op on the shared object.
	ActInvoke ActionKind = iota + 1
	// ActDecide means the process decides Action.Dec and halts.
	ActDecide
)

// Action is a process's next move: either invoke an operation or decide.
type Action struct {
	Kind ActionKind
	Op   Op    // valid when Kind == ActInvoke
	Dec  Value // valid when Kind == ActDecide
}

// Invoke builds an invocation action.
func Invoke(op Op) Action { return Action{Kind: ActInvoke, Op: op} }

// Decide builds a decision action.
func Decide(v Value) Action { return Action{Kind: ActDecide, Dec: v} }

// Protocol is a deterministic per-process program over one shared object.
// A protocol for n processes assigns each pid in [0, n) a step machine whose
// local state is encoded as a string.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Procs returns the number of processes n.
	Procs() int
	// Init returns pid's encoded initial local state given its input value.
	Init(pid int, input Value) string
	// Step returns pid's next action in the given local state.
	Step(pid int, local string) Action
	// Next returns pid's local state after receiving resp for the
	// invocation returned by Step.
	Next(pid int, local string, resp Value) string
}

// EncodeValues renders a value vector as a canonical comma-separated string.
func EncodeValues(vs []Value) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// DecodeValues parses a string produced by EncodeValues.
func DecodeValues(s string) []Value { return appendValues(nil, s) }

// appendValues appends the values encoded in s to dst, so a caller may
// decode into a buffer of its own.
func appendValues(dst []Value, s string) []Value {
	for s != "" {
		var v string
		v, s, _ = strings.Cut(s, ",")
		dst = append(dst, parseValue(v))
	}
	return dst
}

// parseValue parses one encoded value.
func parseValue(s string) Value {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic("model: corrupt state encoding: " + s)
	}
	return Value(n)
}
