// Package b is the caller side of the cross-package fixture: wait-free
// entry points whose violations live across an import edge. Analysis that
// stops at package boundaries would report nothing here; the whole-program
// call graph reports both.
package b

import "waitfree/internal/wfcheck/testdata/src/xpkg/a"

// CallsHidden reaches a mutex through an unannotated helper in package a.
//
//wf:waitfree
func CallsHidden() {
	a.Helper()
}

// CallsDeclared calls a function package a annotates wf:blocking.
//
//wf:waitfree
func CallsDeclared() {
	a.Declared()
}
