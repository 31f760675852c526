package server

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"waitfree/internal/core"
	"waitfree/internal/logstore"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
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

// TestServerBootReplaysRuns: boot rebuilds each shard's state from its
// snapshot and the log above it without the universal construction, and
// the committer applies without it too, so a server on a non-empty store
// has consed nothing, stored no snapshot and retired nothing, fresh from
// New and again after serving writes, gets and a routed len. The states
// boot publishes stay frozen: the committer applies to clones of them. A
// store holding a snapshot per shard plus
// hundreds of records per shard above it, interleaved across shards and
// full of repeated keys, must boot to the model of every shard's history
// in order, key by key; a write acked after boot must survive the next
// boot too, so the boot also kept each shard's sequence numbers.
func TestServerBootReplaysRuns(t *testing.T) {
	const shards, keys, snapSeq = 4, 300, 10
	dir := t.TempDir()
	route := shard.NewKV(shards, 1, func() core.FetchAndCons { return core.NewSwapFAC() })
	st, err := logstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	model := map[int64]int64{}
	for sh := 0; sh < shards; sh++ {
		state := map[int64]int64{}
		for k := int64(0); k < keys; k += 2 {
			if route.ShardOf(k) == sh {
				state[k] = k * 3
				model[k] = k * 3
			}
		}
		if err := st.WriteSnapshot(logstore.Snapshot{Shard: uint32(sh), Seq: snapSeq, State: state}); err != nil {
			t.Fatalf("WriteSnapshot: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	seq := make([]uint64, shards)
	var recs []logstore.Record
	for i := 0; i < 800; i++ {
		k := rng.Int63n(keys)
		op := seqspec.Op{Kind: "put", Args: []int64{k, rng.Int63n(1000)}}
		if rng.Intn(4) == 0 {
			op = seqspec.Op{Kind: "del", Args: []int64{k}}
			delete(model, k)
		} else {
			model[k] = op.Arg(1)
		}
		sh := route.ShardOf(k)
		seq[sh]++
		recs = append(recs, logstore.Record{Shard: uint32(sh), Seq: snapSeq + seq[sh], Op: op})
		if len(recs) == 50 {
			if err := st.AppendBatch(recs); err != nil {
				t.Fatalf("AppendBatch: %v", err)
			}
			recs = nil
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	check := func(cl *Client) {
		t.Helper()
		for k := int64(0); k < keys; k++ {
			want, ok := model[k]
			if !ok {
				want = seqspec.Empty
			}
			if got, err := cl.Get(k); err != nil || got != want {
				t.Fatalf("after boot get(%d) = (%d, %v), want %d", k, got, err, want)
			}
		}
		if n, err := cl.Len(); err != nil || n != int64(len(model)) {
			t.Fatalf("after boot len = (%d, %v), want %d", n, err, len(model))
		}
	}
	for boot := 0; boot < 2; boot++ {
		s, err := New(Config{Addr: "127.0.0.1:0", Shards: shards, Procs: 4, Dir: dir})
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		untouched := func(when string) {
			t.Helper()
			seen := 0
			for _, smp := range s.Metrics().Snapshot() {
				if smp.Name == "universal.cons_ops" || smp.Name == "universal.snapshot_stores" {
					seen++
					if smp.Value != 0 {
						t.Errorf("boot %d: %s = %d %s, want 0", boot, smp.Name, smp.Value, when)
					}
				}
			}
			if seen != 2 {
				t.Fatalf("boot %d: %d of universal.cons_ops and universal.snapshot_stores registered, want both", boot, seen)
			}
			if r := s.KV().Retired(); r != 0 {
				t.Errorf("boot %d: %d log entries retired %s, want 0", boot, r, when)
			}
		}
		untouched("after New")
		published := make([]seqspec.State, shards)
		frozen := make([]string, shards)
		for sh := range published {
			published[sh] = s.settledState(sh)
			frozen[sh] = published[sh].Key()
		}
		s.Start()
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		check(cl)
		if boot == 0 {
			if _, err := cl.Put(keys+1, 7); err != nil {
				t.Fatalf("put: %v", err)
			}
			model[keys+1] = 7
		}
		check(cl)
		untouched("after serving")
		for sh, st := range published {
			if st.Key() != frozen[sh] {
				t.Errorf("boot %d: shard %d's boot state changed after New: the committer applied to a published state", boot, sh)
			}
		}
		cl.Close()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestServerRecoveryAcrossShardCounts: a store written with 4 shards
// refuses to open under any other count instead of silently losing data.
// With fewer shards, records would have nowhere to go. With more, keys
// move to shards whose snapshots never held them: reopened at 8, a del of
// a moved key followed by enough writes to snapshot its new shard left
// the old put in the old shard's files, and the acked delete was undone
// on the next restart. Each count is tried on a records-only store (the
// default SnapshotEvery is never reached) and on one where every shard
// has a snapshot, so both the record-path and snapshot-path checks run;
// want names the check expected to refuse.
func TestServerRecoveryAcrossShardCounts(t *testing.T) {
	for _, tc := range []struct {
		shards, snapshotEvery int
		want                  string
	}{
		{1, 0, "record for shard"},
		{8, 0, "holds key"},
		{1, 4, "store has shard"},
		{8, 4, "holds key"},
	} {
		name := fmt.Sprintf("4to%d/records", tc.shards)
		if tc.snapshotEvery > 0 {
			name = fmt.Sprintf("4to%d/snapshots", tc.shards)
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Config{Addr: "127.0.0.1:0", Shards: 4, Procs: 4, Dir: dir, SnapshotEvery: tc.snapshotEvery})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s.Start()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			for k := int64(0); k < 64; k++ {
				if _, err := cl.Put(k, k+100); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			cl.Close()
			s.Close()
			st, err := logstore.Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			snaps, err := st.Snapshots()
			st.Close()
			if err != nil {
				t.Fatalf("Snapshots: %v", err)
			}
			wantSnaps := 0
			if tc.snapshotEvery > 0 {
				wantSnaps = 4
			}
			if len(snaps) != wantSnaps {
				t.Fatalf("store holds %d snapshots, want %d", len(snaps), wantSnaps)
			}
			s2, err := New(Config{Addr: "127.0.0.1:0", Shards: tc.shards, Procs: 4, Dir: dir})
			if err == nil {
				s2.Close()
				t.Fatalf("New with %d shards over a 4-shard store succeeded; data would be misrouted", tc.shards)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q, want the %q check", err, tc.want)
			}
		})
	}
}

// TestServerSnapshotsAreShardState: the committer snapshots each shard's own
// state. One sequential client sends seeded random put/del while the test
// records every shard's ops in order. After Close, each shard's newest
// snapshot must equal a model of that shard's first Seq ops, so deleted
// keys are absent, and hold only keys that route to that shard.
func TestServerSnapshotsAreShardState(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	s, err := New(Config{Addr: "127.0.0.1:0", Shards: shards, Procs: 4, Dir: dir, SnapshotEvery: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	hist := make([][]seqspec.Op, shards)
	for i := 0; i < 600; i++ {
		k := rng.Int63n(48)
		op := seqspec.Op{Kind: "put", Args: []int64{k, rng.Int63n(1000)}}
		if rng.Intn(3) == 0 {
			op = seqspec.Op{Kind: "del", Args: []int64{k}}
		}
		if _, err := cl.Do(op); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		sh := s.KV().ShardOf(k)
		hist[sh] = append(hist[sh], op)
	}
	cl.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := logstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatalf("Snapshots: %v", err)
	}
	deleted := 0
	for sh := 0; sh < shards; sh++ {
		snap, ok := snaps[uint32(sh)]
		if !ok || snap.Seq == 0 || snap.Seq > uint64(len(hist[sh])) {
			t.Fatalf("shard %d: newest snapshot %+v, ok=%v, after %d ops", sh, snap, ok, len(hist[sh]))
		}
		model := map[int64]int64{}
		for _, op := range hist[sh][:snap.Seq] {
			if op.Kind == "put" {
				model[op.Arg(0)] = op.Arg(1)
			} else {
				if _, ok := model[op.Arg(0)]; ok {
					deleted++
				}
				delete(model, op.Arg(0))
			}
		}
		if !reflect.DeepEqual(snap.State, model) {
			t.Errorf("shard %d snapshot at seq %d:\n got %v\nwant %v", sh, snap.Seq, snap.State, model)
		}
		for k := range snap.State {
			if to := s.KV().ShardOf(k); to != sh {
				t.Errorf("shard %d snapshot holds key %d, which routes to shard %d", sh, k, to)
			}
		}
	}
	if deleted == 0 {
		t.Fatal("no snapshot covered a delete of a present key")
	}
}

// TestServerKill9Recovery is the real crash drill: fill the wfserver
// binary from several connections at once, SIGKILL it (no shutdown path
// runs), restart on the same directory, and verify every acked write.
func TestServerKill9Recovery(t *testing.T) {
	addr, start := serverDrill(t, 32)
	srv := start()
	defer func() { srv.Process.Kill(); srv.Wait() }()

	const conns, keys = 4, 256
	var wg sync.WaitGroup
	for c := int64(0); c < conns; c++ {
		cl := dialRetry(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			for k := c; k < keys; k += conns {
				if _, err := cl.Put(k, k*7); err != nil {
					t.Errorf("put(%d): %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// SIGKILL: no defer, no flush, no Close — only what is durable counts.
	if err := srv.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	srv.Wait()

	srv = start()
	cl := dialRetry(t, addr)
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

// serverDrill builds the wfserver binary and returns the address it will
// listen on and a function that starts it, on the same data directory
// every time, with -snap-every snapshotEvery. The binary is race-enabled when
// this test binary is, so the drills also run the real server under the
// race detector. Skipped in -short.
func serverDrill(t *testing.T, snapshotEvery int) (addr string, start func() *exec.Cmd) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs a real binary; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "wfserver")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	build := exec.Command("go", append(args, "./cmd/wfserver")...)
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(build.Args, " "), err, out)
	}
	dataDir := filepath.Join(tmp, "data")
	addr = freeAddr(t)
	return addr, func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-dir", dataDir, "-snap-every", strconv.Itoa(snapshotEvery), "-shards", "4", "-procs", "16")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start wfserver: %v", err)
		}
		return cmd
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
	addr, start := serverDrill(t, 64)
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
