//go:build !unix

package server

// rawWrite writes nothing where the socket is no Unix descriptor: every
// reply then goes to the connection's writer.
func (w *connState) rawWrite(uintptr) bool { return true }
