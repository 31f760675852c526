package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// TestServerSlowPeer: a peer that pipelines requests and never reads its
// replies stalls only its own connection. Its reader ends up blocked in a
// socket write, or on a window of routed writes whose completions its
// writer cannot flush; the committer never blocks on it, so a second
// client's put and get on the same shards, and its len (in durable mode
// routed behind its own writes), still complete. Once the
// stuck peer hangs up, its pid goes back to the pool (in memory: a durable
// server's pool stays empty), Close returns and the goroutines return to
// baseline.
func TestServerSlowPeer(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			baseline := settledGoroutines()
			cfg := Config{Addr: "127.0.0.1:0", Shards: 2, Procs: 2, Window: 4}
			if durable {
				cfg.Dir = t.TempDir()
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s.Start()
			closed := false
			defer func() {
				if !closed {
					s.Close()
				}
			}()

			// The stuck peer puts to keys of shard 0 and gets keys of
			// shard 1, so its gets stay inline and fill its reply path at
			// CPU speed while its puts to shard 0 keep its window routed to
			// the committer. The second client uses other keys on both
			// shards.
			var putKeys, getKeys []int64
			for k := int64(1000); len(putKeys) < 8 || len(getKeys) < 8; k++ {
				if s.KV().ShardOf(k) == 0 {
					putKeys = append(putKeys, k)
				} else {
					getKeys = append(getKeys, k)
				}
			}
			var burst []byte
			for i := 0; i < 1024; i++ {
				op := seqspec.Op{Kind: "get", Args: []int64{getKeys[i%8]}}
				if i%8 == 0 {
					op = seqspec.Op{Kind: "put", Args: []int64{putKeys[i/8%8], int64(i)}}
				}
				burst = wire.AppendRequestFrame(burst, uint64(i+1), op)
			}
			stuck, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer stuck.Close()
			// A small receive buffer on the stuck side fills the server's
			// reply path sooner; it acts on this process's socket only.
			stuck.(*net.TCPConn).SetReadBuffer(4 << 10)
			fed := make(chan struct{})
			go func() {
				defer close(fed)
				for {
					if _, err := stuck.Write(burst); err != nil {
						return // the test hung up
					}
				}
			}()
			// The server has stopped serving the stuck peer once its op
			// count holds still for half a second.
			giveUp := time.Now().Add(60 * time.Second)
			for last, still := int64(-1), 0; still < 10; {
				if time.Now().After(giveUp) {
					t.Fatalf("server kept serving a peer that never reads for 60 s")
				}
				time.Sleep(50 * time.Millisecond)
				if n := s.opsServed.Load(); n != last {
					last, still = n, 0
				} else {
					still++
				}
			}

			hit := map[int]bool{}
			for k := int64(0); k < 8; k++ {
				hit[s.KV().ShardOf(k)] = true
			}
			if len(hit) != cfg.Shards {
				t.Fatalf("keys 0..7 reach %d of %d shards", len(hit), cfg.Shards)
			}
			done := make(chan error, 1)
			go func() {
				cl, err := Dial(s.Addr().String())
				if err != nil {
					done <- err
					return
				}
				defer cl.Close()
				for k := int64(0); k < 8; k++ {
					if _, err := cl.Put(k, 100+k); err != nil {
						done <- err
						return
					}
					if v, err := cl.Get(k); err != nil || v != 100+k {
						done <- fmt.Errorf("get(%d) = (%d, %v), want %d", k, v, err, 100+k)
						return
					}
				}
				if _, err := cl.Len(); err != nil {
					done <- err
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("second client beside the stuck peer: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("second client's put/get/len did not complete within 10 s beside a stuck peer")
			}

			stuck.Close()
			<-fed
			deadline := time.Now().Add(5 * time.Second)
			for !durable && len(s.pool) != cfg.Procs {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d pids in the pool 5 s after the stuck peer hung up", len(s.pool), cfg.Procs)
				}
				time.Sleep(5 * time.Millisecond)
			}
			closeDone := make(chan error, 1)
			go func() { closeDone <- s.Close() }()
			select {
			case err := <-closeDone:
				closed = true
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Close did not return within 10 s after the stuck peer hung up")
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestServerDirectAckShortWrite: the committer's direct write may leave
// a tail that the writer, or the reader's next flush, must send before
// anything else. With a direct write that takes at most a few bytes per
// call, and sometimes none (EAGAIN), one pipelined durable connection
// mixes routed puts and gets with inline gets: every reply arrives whole,
// every id completes exactly once, with a sequential model's value. Then
// the store fails (it is closed under the running server): the failed
// persist's error frames and the hangup still come last, and the stream
// ends at a frame boundary.
func TestServerDirectAckShortWrite(t *testing.T) {
	var calls atomic.Int64
	saved := directWrite
	t.Cleanup(func() { directWrite = saved }) // after the server's Close
	directWrite = func(w *connState, b []byte) int {
		switch calls.Add(1) % 3 {
		case 0:
			return 0 // EAGAIN: the socket buffer is full
		case 1:
			return w.tryWrite(b[:1])
		default:
			return w.tryWrite(b[:min(len(b), 5)])
		}
	}
	s := startServer(t, Config{Shards: 2, Procs: 2, Window: 64, Dir: t.TempDir()})
	var putKeys, getKeys []int64 // shard 0 takes the writes; shard 1's gets stay inline
	for k := int64(0); len(putKeys) < 8 || len(getKeys) < 4; k++ {
		if s.KV().ShardOf(k) == 0 {
			putKeys = append(putKeys, k)
		} else {
			getKeys = append(getKeys, k)
		}
	}
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(30 * time.Second)) // a lost reply fails instead of hanging
	dec := wire.NewDecoder(c)
	send := func(reqs []byte) {
		go func() { c.Write(reqs) }() // a write error shows as a missing reply
	}

	const nOps = 3000
	rng := rand.New(rand.NewSource(7))
	model := map[int64]int64{}
	want := make(map[uint64]int64, nOps)
	var reqs []byte
	get := func(k int64) int64 {
		if v, ok := model[k]; ok {
			return v
		}
		return seqspec.Empty
	}
	for i := 0; i < nOps; i++ {
		var op seqspec.Op
		v := seqspec.Empty
		switch k := putKeys[rng.Intn(len(putKeys))]; i % 4 {
		case 0, 1:
			op = seqspec.Op{Kind: "put", Args: []int64{k, int64(i)}}
			v, model[k] = get(k), int64(i)
		case 2:
			op = seqspec.Op{Kind: "get", Args: []int64{k}}
			v = get(k)
		default:
			op = seqspec.Op{Kind: "get", Args: []int64{getKeys[rng.Intn(len(getKeys))]}}
		}
		want[uint64(i+1)] = v
		reqs = wire.AppendRequestFrame(reqs, uint64(i+1), op)
	}
	send(reqs)
	for len(want) > 0 {
		payload, err := dec.Next()
		if err != nil {
			t.Fatalf("%d replies missing: %v", len(want), err)
		}
		id, v, err := wire.DecodeReply(payload)
		if err != nil {
			t.Fatalf("reply %x: %v", payload, err)
		}
		w, ok := want[id]
		if !ok {
			t.Fatalf("reply id %d: duplicate or never requested", id)
		}
		if v != w {
			t.Fatalf("reply to %d = %d, want %d", id, v, w)
		}
		delete(want, id)
	}
	if calls.Load() == 0 {
		t.Fatal("no drain took the direct write: the short-write path went untested")
	}

	// A failed persist: 16 puts beside 16 inline gets, in one segment.
	s.Store().Close()
	reqs = nil // a fresh buffer: the first burst's sender may not have returned yet
	sent := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		op := seqspec.Op{Kind: "put", Args: []int64{putKeys[i%8], int64(i)}}
		if i%2 == 1 {
			op = seqspec.Op{Kind: "get", Args: []int64{getKeys[i%4]}}
		}
		id := uint64(nOps + 1 + i)
		sent[id] = true
		reqs = wire.AppendRequestFrame(reqs, id, op)
	}
	send(reqs)
	var last error
	failures := 0
	for {
		payload, err := dec.Next()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("stream after the failed persist ended with %v, want io.EOF at a frame boundary", err)
			}
			break
		}
		id, _, rerr := wire.DecodeReply(payload)
		var remote *wire.RemoteError
		if rerr != nil && !errors.As(rerr, &remote) {
			t.Fatalf("reply %x: %v", payload, rerr)
		}
		if !sent[id] {
			t.Fatalf("reply id %d: duplicate or never requested", id)
		}
		delete(sent, id)
		if last = rerr; remote != nil {
			if !strings.HasPrefix(remote.Reason, "persist: ") {
				t.Fatalf("reply to %d: %v, want a persist failure", id, rerr)
			}
			failures++
		}
	}
	if failures == 0 || last == nil {
		t.Fatalf("%d persist failures, last reply error %v: want the failure frames last", failures, last)
	}
}

// TestServerFrameEdges: each framing limit at the server has a stated
// outcome. A zero-length frame and a MaxFrame-sized garbage payload each
// get one error frame and then EOF; a length prefix above MaxFrame gets a
// hangup with no reply.
func TestServerFrameEdges(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Procs: 4})
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	errorThenEOF := func(t *testing.T, c net.Conn) {
		t.Helper()
		payload, err := wire.ReadFrame(c, nil)
		if err != nil {
			t.Fatalf("want one error frame, got %v", err)
		}
		if _, _, err := wire.DecodeReply(payload); err == nil {
			t.Fatalf("reply to a malformed frame decoded as success")
		} else if _, ok := err.(*wire.RemoteError); !ok {
			t.Fatalf("reply to a malformed frame: %v, want a wire error frame", err)
		}
		if _, err := wire.ReadFrame(c, nil); err != io.EOF {
			t.Fatalf("after the error frame: %v, want EOF", err)
		}
	}
	t.Run("zero-length", func(t *testing.T) {
		c := dial(t)
		if err := wire.WriteFrame(c, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		errorThenEOF(t, c)
	})
	t.Run("max-size-garbage", func(t *testing.T) {
		c := dial(t)
		garbage := make([]byte, wire.MaxFrame)
		for i := range garbage {
			garbage[i] = 0xff
		}
		if err := wire.WriteFrame(c, garbage); err != nil {
			t.Fatalf("write: %v", err)
		}
		errorThenEOF(t, c)
	})
	t.Run("oversize-prefix", func(t *testing.T) {
		c := dial(t)
		if _, err := c.Write(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if p, err := wire.ReadFrame(c, nil); err != io.EOF {
			t.Fatalf("oversize prefix: got frame %x, err %v; want a hangup with no reply", p, err)
		}
	})
}

// TestServerMalformedAfterPipeline: requests pipelined ahead of a garbage
// frame are all answered, with the values a sequential KV gives, before
// the one error frame, and nothing follows it. In memory every request is
// a get the reader answers itself; with a store, durable puts are mixed
// in, so gets on the dirtied shards route behind them and a Window of 4
// makes the reader wait on its window. Either way the reader flushes its
// own replies, waits for the routed ones, then sends the error frame and
// hangs up.
func TestServerMalformedAfterPipeline(t *testing.T) {
	const n = 64
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Shards: 2, Procs: 4, Window: 4}
			if durable {
				cfg.Dir = t.TempDir()
			}
			s := startServer(t, cfg)
			model := seqspec.KV{}.Init()
			want := make(map[uint64]int64, n)
			var burst []byte
			for i := 0; i < n; i++ {
				op := seqspec.Op{Kind: "get", Args: []int64{int64(i % 8)}}
				if durable && i%3 == 0 {
					op = seqspec.Op{Kind: "put", Args: []int64{int64(i % 8), int64(i)}}
				}
				id := uint64(i + 1)
				want[id] = model.Apply(op)
				burst = wire.AppendRequestFrame(burst, id, op)
			}
			burst = append(binary.BigEndian.AppendUint32(burst, 4), 0xde, 0xad, 0xbe, 0xef)

			c, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write(burst); err != nil {
				t.Fatalf("write: %v", err)
			}
			for len(want) > 0 {
				payload, err := wire.ReadFrame(c, nil)
				if err != nil {
					t.Fatalf("%d replies missing: %v", len(want), err)
				}
				id, v, err := wire.DecodeReply(payload)
				if err != nil {
					t.Fatalf("error frame (%v) with %d earlier requests unanswered", err, len(want))
				}
				w, ok := want[id]
				if !ok {
					t.Fatalf("reply id %d: duplicate or never requested", id)
				}
				if v != w {
					t.Fatalf("reply %d = %d, sequential KV says %d", id, v, w)
				}
				delete(want, id)
			}
			payload, err := wire.ReadFrame(c, nil)
			if err != nil {
				t.Fatalf("want the error frame after every reply, got %v", err)
			}
			if _, _, err := wire.DecodeReply(payload); err == nil {
				t.Fatalf("frame after the replies decoded as success, want the error frame")
			}
			if p, err := wire.ReadFrame(c, nil); err != io.EOF {
				t.Fatalf("after the error frame: frame %x, err %v; want EOF", p, err)
			}
		})
	}
}
