// Package pubcell pins how pubsafety sees the two ways of filling a list
// cell before a store to its atomic next pointer publishes it. Filled field
// by field, the cell's plain fields become payload published under that
// store, so every plain read of them without an acquiring load is flagged.
// Filled by one whole-struct assignment, no field is written through a
// selector, so nothing is published and the same reads pass. The second
// form is how a cons fills a cell that readers reach only through an
// acquiring load of the list anchor.
package pubcell

import "sync/atomic"

type fieldCell struct {
	val  int
	len  int
	next atomic.Pointer[fieldCell]
}

// LinkFields fills c field by field, then stores next.
func LinkFields(c *fieldCell, v int, rest *fieldCell) {
	c.val = v
	c.len = 1
	c.next.Store(rest)
}

// ReadFields reads the fields with no load of next: flagged.
func ReadFields(c *fieldCell) int {
	return c.val + c.len
}

type wholeCell struct {
	val  int
	len  int
	next atomic.Pointer[wholeCell]
}

// LinkWhole fills c in one struct assignment, then stores next.
func LinkWhole(c *wholeCell, v int, rest *wholeCell) {
	*c = wholeCell{val: v, len: 1}
	c.next.Store(rest)
}

// ReadWhole reads the fields the same way: not flagged.
func ReadWhole(c *wholeCell) int {
	return c.val + c.len
}
