package server

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// TestServerPersistRecovery: in-process crash drill — write through the
// socket, Close, reopen the same directory, and every acked write must be
// back, including overwrites and deletes.
func TestServerPersistRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Addr: "127.0.0.1:0", Shards: 4, Procs: 8, Dir: dir, SnapshotEvery: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	expect := map[int64]int64{}
	for k := int64(0); k < 100; k++ {
		if _, err := cl.Put(k, k*k); err != nil {
			t.Fatalf("put: %v", err)
		}
		expect[k] = k * k
	}
	for k := int64(0); k < 100; k += 3 { // overwrites
		if _, err := cl.Put(k, -k); err != nil {
			t.Fatalf("put: %v", err)
		}
		expect[k] = -k
	}
	for k := int64(0); k < 100; k += 7 { // deletes
		if _, err := cl.Del(k); err != nil {
			t.Fatalf("del: %v", err)
		}
		delete(expect, k)
	}
	cl.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var logMu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	s2, err := New(Config{Addr: "127.0.0.1:0", Shards: 4, Procs: 8, Dir: dir, SnapshotEvery: 16, Logf: logf})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	s2.Start()
	defer s2.Close()
	logMu.Lock()
	if len(logged) != 1 || !strings.Contains(logged[0], "snapshots loaded") || !strings.Contains(logged[0], "records replayed") ||
		!strings.Contains(logged[0], "0 torn bytes truncated") || !strings.Contains(logged[0], "0 orphans removed") {
		t.Errorf("boot logged %q, want one recovery line", logged)
	}
	logMu.Unlock()
	cl2, err := Dial(s2.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl2.Close()
	for k := int64(0); k < 100; k++ {
		want, ok := expect[k]
		if !ok {
			want = seqspec.Empty
		}
		got, err := cl2.Get(k)
		if err != nil {
			t.Fatalf("get(%d): %v", k, err)
		}
		if got != want {
			t.Fatalf("after recovery get(%d) = %d, want %d", k, got, want)
		}
	}
	if n, err := cl2.Len(); err != nil || n != int64(len(expect)) {
		t.Fatalf("after recovery len = (%d, %v), want %d", n, err, len(expect))
	}
	// Recovered state accepts new writes, and /stats shows the store taking
	// them.
	if _, err := cl2.Put(1000, 1); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	gauges := map[string]int64{}
	for _, smp := range s2.Metrics().Snapshot() {
		gauges[smp.Name] = smp.Value
	}
	for name, min := range map[string]int64{"logstore.segments": 1, "logstore.fsyncs": 1, "logstore.batches": 1, "logstore.torn_bytes": 0} {
		if v, ok := gauges[name]; !ok || v < min {
			t.Errorf("gauge %s = %d (registered %v), want >= %d", name, v, ok, min)
		}
	}
}

// TestServerRecoveryAcrossShardCounts: a store written with one shard
// count refuses to open under a smaller one (records would have nowhere to
// go) instead of silently dropping data.
func TestServerRecoveryAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Addr: "127.0.0.1:0", Shards: 4, Procs: 4, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for k := int64(0); k < 32; k++ {
		if _, err := cl.Put(k, k); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	cl.Close()
	s.Close()
	if _, err := New(Config{Addr: "127.0.0.1:0", Shards: 1, Procs: 4, Dir: dir}); err == nil {
		t.Fatalf("New with fewer shards than the store holds succeeded; data would be misrouted")
	}
}

// TestServerKill9Recovery is the real crash drill: build the wfserver
// binary, fill it over a socket, SIGKILL it mid-flight (no shutdown path
// runs), restart on the same directory, and verify every acked write.
func TestServerKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a real binary; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "wfserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wfserver")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/wfserver: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")
	addr := freeAddr(t)

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-dir", dataDir, "-snap-every", "32", "-shards", "4", "-procs", "16")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start wfserver: %v", err)
		}
		return cmd
	}
	srv := start()
	defer func() { srv.Process.Kill(); srv.Wait() }()

	cl := dialRetry(t, addr)
	const keys = 200
	for k := int64(0); k < keys; k++ {
		if _, err := cl.Put(k, k*7); err != nil {
			t.Fatalf("put(%d): %v", k, err)
		}
	}
	cl.Close()

	// SIGKILL: no defer, no flush, no Close — only what is durable counts.
	if err := srv.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	srv.Wait()

	srv = start()
	cl = dialRetry(t, addr)
	defer cl.Close()
	for k := int64(0); k < keys; k++ {
		v, err := cl.Get(k)
		if err != nil {
			t.Fatalf("get(%d) after kill -9: %v", k, err)
		}
		if v != k*7 {
			t.Fatalf("get(%d) after kill -9 = %d, want %d: acked write lost", k, v, k*7)
		}
	}
	// And the restarted server still takes writes.
	if _, err := cl.Put(keys, 1); err != nil {
		t.Fatalf("post-restart put: %v", err)
	}
}

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// freeAddr grabs an ephemeral port and releases it for the child process.
// (The tiny reuse race is acceptable in a test.)
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// dialRetry polls until the (re)starting server accepts and serves.
func dialRetry(t *testing.T, addr string) *Client {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl, err := Dial(addr)
		if err == nil {
			if _, lerr := cl.Len(); lerr == nil {
				return cl
			}
			cl.Close()
			err = fmt.Errorf("len probe failed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("server at %s never came up: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestServerKill9PipelinedRecovery is the crash drill under pipelined
// load: a sender goroutine keeps a deep window of unique-key puts in
// flight while a receiver records which ids were acked, the server is
// SIGKILLed mid-stream (acks still streaming back), and after restart
// every acked write must be present — an acked-but-unpersisted write
// surviving in the ack record but not the store is exactly the bug the
// coalesced-ack path must not introduce.
func TestServerKill9PipelinedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a real binary; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "wfserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wfserver")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/wfserver: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")
	addr := freeAddr(t)

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-dir", dataDir, "-snap-every", "64", "-shards", "4", "-procs", "16")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start wfserver: %v", err)
		}
		return cmd
	}
	srv := start()
	defer func() { srv.Process.Kill(); srv.Wait() }()

	cl := dialRetry(t, addr)

	// Sender: unique keys k with value k*13, as deep a window as the
	// server allows, flushed in small batches. Receiver: records acked
	// ids. Both race the kill below; errors past the kill are expected.
	const maxKeys = 1 << 20
	idKey := make(map[uint64]int64, 4096)
	var mu sync.Mutex
	acked := make(map[int64]bool, 4096)
	sendDone := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for k := int64(0); k < maxKeys; k++ {
			mu.Lock()
			id, err := cl.Send(seqspec.Op{Kind: "put", Args: []int64{k, k * 13}})
			if err == nil {
				idKey[id] = k
			}
			mu.Unlock()
			if err != nil {
				return
			}
			if k%16 == 15 {
				if err := cl.Flush(); err != nil {
					return
				}
			}
		}
	}()
	go func() {
		defer close(recvDone)
		for {
			id, _, err := cl.Recv()
			if err != nil {
				if _, ok := err.(*wire.RemoteError); !ok {
					return // transport error: conn died (the kill)
				}
				t.Errorf("pipelined put refused: %v", err)
				continue
			}
			mu.Lock()
			acked[idKey[id]] = true
			mu.Unlock()
		}
	}()

	// Let a few thousand acks accumulate, then SIGKILL mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 2000 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	srv.Wait()
	cl.Close()
	<-sendDone
	<-recvDone
	mu.Lock()
	keys := make([]int64, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	mu.Unlock()
	if len(keys) < 100 {
		t.Fatalf("only %d acked writes before the kill; load generator never got going", len(keys))
	}

	srv = start()
	cl2 := dialRetry(t, addr)
	defer cl2.Close()
	lost := 0
	for _, k := range keys {
		v, err := cl2.Get(k)
		if err != nil {
			t.Fatalf("get(%d) after kill -9: %v", k, err)
		}
		if v != k*13 {
			lost++
			if lost <= 5 {
				t.Errorf("get(%d) after kill -9 = %d, want %d: acked write lost", k, v, k*13)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked pipelined writes lost across kill -9", lost, len(keys))
	}
	t.Logf("all %d acked pipelined writes survived kill -9", len(keys))
}
