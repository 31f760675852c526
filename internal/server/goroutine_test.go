package server

import (
	"runtime"
	"testing"
	"time"

	"waitfree/internal/seqspec"
)

// serverCycle runs one full server lifetime: start (with persistence, so
// the committer and stats loop spawn too), serve a few clients — including
// a pipelined burst, so each connection's writer goroutine carries real
// out-of-order traffic before the shutdown edge — then close.
func serverCycle(t *testing.T, dir string) {
	t.Helper()
	s, err := New(Config{Addr: "127.0.0.1:0", StatsAddr: "127.0.0.1:0", Shards: 4, Procs: 8, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	for c := 0; c < 3; c++ {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			s.Close()
			t.Fatalf("Dial: %v", err)
		}
		for k := int64(0); k < 8; k++ {
			if _, err := cl.Put(k, k*10); err != nil {
				cl.Close()
				s.Close()
				t.Fatalf("Put: %v", err)
			}
		}
		// Pipelined burst: mixed writes and reads in flight together, so
		// completions traverse both the committer path and the inline fast
		// path while the window is deep.
		pending := map[uint64]bool{}
		for k := int64(0); k < 16; k++ {
			op := seqspec.Op{Kind: "put", Args: []int64{k % 4, k}}
			if k%3 == 0 {
				op = seqspec.Op{Kind: "get", Args: []int64{k % 4}}
			}
			id, err := cl.Send(op)
			if err != nil {
				cl.Close()
				s.Close()
				t.Fatalf("Send: %v", err)
			}
			pending[id] = true
		}
		if err := cl.Flush(); err != nil {
			cl.Close()
			s.Close()
			t.Fatalf("Flush: %v", err)
		}
		for len(pending) > 0 {
			id, _, err := cl.Recv()
			if err != nil || !pending[id] {
				cl.Close()
				s.Close()
				t.Fatalf("Recv: id %d, err %v", id, err)
			}
			delete(pending, id)
		}
		if _, err := cl.Get(1); err != nil {
			cl.Close()
			s.Close()
			t.Fatalf("Get: %v", err)
		}
		cl.Close()
	}
	s.Close()
}

// settledGoroutines waits (up to 5 s) for the goroutine count to stop
// falling and returns it: the baseline a later waitGoroutines compares to.
func settledGoroutines() int {
	deadline := time.Now().Add(5 * time.Second)
	baseline := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= baseline {
			return n
		}
		baseline = n
	}
	return baseline
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline within 5 s, dumping every stack if it does not.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutines did not return to baseline: %d > %d\n%s", n, baseline, buf)
}

// TestServerGoroutineHygiene pins the //wf:owns contract dynamically: after
// a full start/serve/shutdown cycle every spawned goroutine — accept loop,
// stats server, committer, per-connection handlers — has reached
// its declared shutdown mechanism and exited, returning the process to its
// goroutine baseline.
func TestServerGoroutineHygiene(t *testing.T) {
	// A throwaway warm-up cycle absorbs goroutines the runtime and net/http
	// start lazily and never retire (DNS resolver, http server bookkeeping).
	serverCycle(t, t.TempDir())
	baseline := settledGoroutines()
	serverCycle(t, t.TempDir())
	waitGoroutines(t, baseline)
}

// TestServerGoroutineHygieneInMemory is the same pin for the no-persistence
// configuration (no committer).
func TestServerGoroutineHygieneInMemory(t *testing.T) {
	serverCycle(t, "")
	baseline := settledGoroutines()
	serverCycle(t, "")
	waitGoroutines(t, baseline)
}

// TestServerOneCommitter pins the durable pipeline's goroutine count: after
// New, a durable server with 16 shards runs exactly one goroutine more than
// an in-memory one — the committer. No shard and no store runs its own.
func TestServerOneCommitter(t *testing.T) {
	spawned := func(dir string) int {
		baseline := settledGoroutines()
		s, err := New(Config{Addr: "127.0.0.1:0", Shards: 16, Procs: 8, Dir: dir})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n := settledGoroutines() - baseline
		s.Close()
		waitGoroutines(t, baseline)
		return n
	}
	if mem, durable := spawned(""), spawned(t.TempDir()); durable != mem+1 {
		t.Fatalf("New spawned %d goroutines durable and %d in memory, want exactly one more durable", durable, mem)
	}
}
