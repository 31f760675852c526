//go:build unix

package server

import "syscall"

// rawWrite is tryWrite's callback: one write(2) on the socket, which the
// runtime keeps non-blocking. Returning true tells the runtime not to wait
// for the socket to drain: a short write, or EAGAIN, is tryWrite's answer.
func (w *connState) rawWrite(fd uintptr) bool {
	w.rawN, _ = syscall.Write(int(fd), w.rawB)
	w.rawN = max(w.rawN, 0) // -1 on an error
	return true
}
