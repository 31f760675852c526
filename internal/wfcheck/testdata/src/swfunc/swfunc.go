// Package swfunc exercises singlewriter on the sync/atomic package-function
// form: the register is the &slot operand, so an owner-indexed
// atomic.AddInt64(&t.slots[pid], 1) passes while a foreign-indexed Add or
// Store is flagged like the method form.
package swfunc

import "sync/atomic"

type table struct {
	//wf:singlewriter pid
	slots []int64
}

// own steps only its own slot.
func (t *table) own(pid int) {
	atomic.AddInt64(&t.slots[pid], 1)
}

// foreign steps and stores another process's slot.
func (t *table) foreign(j int, v int64) {
	atomic.AddInt64(&t.slots[j], 1)
	atomic.StoreInt64(&t.slots[j], v)
}
