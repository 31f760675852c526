package model

import (
	"fmt"
	"strconv"
	"strings"
)

// Queue is the FIFO queue model object of Section 3.3, with the total deq of
// Section 2.2 (returns None on empty rather than blocking). With Augmented
// set it also supports the peek operation of Section 3.4, which lifts its
// consensus number from 2 to infinity (Theorem 12).
//
// Operations:
//
//	enq(v)  -> None; appends v
//	deq()   -> head item, or None if empty
//	peek()  -> head item without removing it, or None (augmented only)
type Queue struct {
	name      string
	init      []Value
	menu      []Value
	augmented bool
}

// NewQueue builds a FIFO queue model object initialized with the given items
// (head first). menu bounds the item domain offered to the synthesizer.
func NewQueue(name string, init []Value, menu ...Value) *Queue {
	if len(menu) == 0 {
		menu = []Value{0, 1}
	}
	return &Queue{name: name, init: append([]Value(nil), init...), menu: menu}
}

// NewAugmentedQueue builds the augmented queue of Section 3.4 (adds peek).
func NewAugmentedQueue(name string, init []Value, menu ...Value) *Queue {
	q := NewQueue(name, init, menu...)
	q.augmented = true
	return q
}

// Name implements Object.
func (q *Queue) Name() string { return q.name }

// Init implements Object.
func (q *Queue) Init() string { return EncodeValues(q.init) }

// Apply implements Object. It works on the encoding itself: the head is
// the text before the first comma, and enq appends ",v".
func (q *Queue) Apply(state string, op Op) (string, Value) {
	switch op.Kind {
	case "enq":
		v := strconv.Itoa(int(op.A))
		if state == "" {
			return v, None
		}
		return state + "," + v, None
	case "deq":
		if state == "" {
			return state, None
		}
		head, rest, _ := strings.Cut(state, ",")
		return rest, parseValue(head)
	case "peek":
		if !q.augmented {
			panic("model: queue " + q.name + ": peek on non-augmented queue")
		}
		if state == "" {
			return state, None
		}
		head, _, _ := strings.Cut(state, ",")
		return state, parseValue(head)
	default:
		panic(fmt.Sprintf("model: queue %q: unknown op kind %q", q.name, op.Kind))
	}
}

// Ops implements Object.
func (q *Queue) Ops(n, pid int) []Op {
	ops := []Op{{Kind: "deq", A: None, B: None, C: None}}
	for _, v := range q.menu {
		ops = append(ops, Op{Kind: "enq", A: v, B: None, C: None})
	}
	if q.augmented {
		ops = append(ops, Op{Kind: "peek", A: None, B: None, C: None})
	}
	return ops
}

// Stack is the LIFO stack model object (Corollary 10 groups it with queues,
// priority queues, sets and lists: consensus number 2).
//
// Operations:
//
//	push(v) -> None
//	pop()   -> top item, or None if empty
type Stack struct {
	name string
	init []Value
	menu []Value
}

// NewStack builds a stack model object initialized with the given items
// (top last).
func NewStack(name string, init []Value, menu ...Value) *Stack {
	if len(menu) == 0 {
		menu = []Value{0, 1}
	}
	return &Stack{name: name, init: append([]Value(nil), init...), menu: menu}
}

// Name implements Object.
func (s *Stack) Name() string { return s.name }

// Init implements Object.
func (s *Stack) Init() string { return EncodeValues(s.init) }

// Apply implements Object.
func (s *Stack) Apply(state string, op Op) (string, Value) {
	items := DecodeValues(state)
	switch op.Kind {
	case "push":
		items = append(items, op.A)
		return EncodeValues(items), None
	case "pop":
		if len(items) == 0 {
			return state, None
		}
		top := items[len(items)-1]
		return EncodeValues(items[:len(items)-1]), top
	default:
		panic(fmt.Sprintf("model: stack %q: unknown op kind %q", s.name, op.Kind))
	}
}

// Ops implements Object.
func (s *Stack) Ops(n, pid int) []Op {
	ops := []Op{{Kind: "pop", A: None, B: None, C: None}}
	for _, v := range s.menu {
		ops = append(ops, Op{Kind: "push", A: v, B: None, C: None})
	}
	return ops
}
