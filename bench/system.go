package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"waitfree"
	"waitfree/internal/seqspec"
	"waitfree/internal/server"
	"waitfree/internal/shard"
	"waitfree/internal/wfstats"
	"waitfree/internal/wire"
)

// system is the program under test as the harness drives it: an in-process
// internal/server with one client connection per lane, or the bare sharded
// library with one invoking goroutine per lane. All it ever sees of a
// workload is the ops of the streams handed to run.
type system struct {
	o     *oracle
	epoch time.Time

	srv     *server.Server
	clients []*server.Client
	sent    []uint64 // requests sent on each client so far; the next id is sent+1

	kv     *shard.Sharded                     // the library workload's object; the server's KV otherwise
	invoke func(pid int, op seqspec.Op) int64 // library lanes call this
	reg    *wfstats.Registry

	stub *stubServer

	// corrupt, when set, rewrites every reply before it is checked. The
	// self-tests use it to prove the oracle notices.
	corrupt func(int64) int64
}

func (s *system) now() int64 { return int64(time.Since(s.epoch)) }

// startSystem brings up w's system on store directory dir ("" for the
// storeless workloads) and connects the lanes.
func startSystem(w *workload, dir string, o *oracle) (*system, error) {
	s := &system{o: o, epoch: time.Now()}
	if !w.net {
		s.reg = wfstats.NewRegistry()
		s.kv = waitfree.NewShardedKV(w.shards, lanes,
			func() waitfree.FetchAndCons { return waitfree.NewSwapFetchAndCons() },
			waitfree.WithMetrics(s.reg))
		s.kv.Instrument(s.reg)
		s.invoke = s.kv.Invoke
		return s, nil
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Shards: w.shards, Dir: dir, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	srv.Start()
	s.srv, s.kv, s.reg = srv, srv.KV(), srv.Metrics()
	if err := s.dial(srv.Addr().String()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) dial(addr string) error {
	s.sent = make([]uint64, lanes)
	for l := 0; l < lanes; l++ {
		cl, err := server.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial lane %d: %w", l, err)
		}
		s.clients = append(s.clients, cl)
	}
	return nil
}

// close disconnects the lanes and shuts the server down (which closes the
// store). It is safe on a partly started system.
func (s *system) close() error {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.clients = nil
	var err error
	if s.srv != nil {
		err = s.srv.Close()
		s.srv = nil
	}
	if s.stub != nil {
		s.stub.close()
		s.stub = nil
	}
	return err
}

// run drives each stream on its lane and returns when every
// reply is in or the lane's transport has failed. Network lanes keep up to
// d requests in flight; d == 1 is a plain send-flush-receive loop in one
// goroutine, the no-queueing floor. Library lanes are synchronous callers.
func (s *system) run(streams []*stream, d int) {
	start := s.now()
	var wg sync.WaitGroup
	for _, st := range streams {
		if len(st.ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			switch {
			case s.clients == nil:
				s.driveLibrary(st, start)
			case d == 1 && st.due == nil:
				s.driveSync(st)
			default:
				s.drivePipelined(st, d, start)
			}
		}(st)
	}
	wg.Wait()
}

func (s *system) reply(v int64) int64 {
	if s.corrupt != nil {
		return s.corrupt(v)
	}
	return v
}

// awaitDue waits for a paced op's due time and returns the time to charge
// its latency from. Long waits sleep, short ones yield: a sleep alone
// measures the timer, a spin alone steals the server's core.
func (s *system) awaitDue(st *stream, i int, start int64) int64 {
	due := start + st.due[i]
	for {
		wait := due - s.now()
		if wait <= 0 {
			break
		}
		if wait > int64(200*time.Microsecond) {
			time.Sleep(time.Duration(wait) - 100*time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	st.late[i] = s.now() - due
	return due
}

func (s *system) driveLibrary(st *stream, start int64) {
	for i := range st.ops {
		t0 := s.now()
		if st.due != nil {
			t0 = s.awaitDue(st, i, start)
		}
		st.onSend(s.o, i)
		v := s.invoke(st.lane, st.ops[i])
		st.lat[i] = s.now() - t0
		st.verify(s.o, i, s.reply(v))
	}
}

func (s *system) driveSync(st *stream) {
	cl := s.clients[st.lane]
	for i := range st.ops {
		t0 := s.now()
		st.onSend(s.o, i)
		v, err := cl.Do(st.ops[i])
		st.lat[i] = s.now() - t0
		s.sent[st.lane]++
		if err != nil {
			st.fail(i, "%v", err)
			var refused *wire.RemoteError
			if !errors.As(err, &refused) {
				st.failed += len(st.ops) - i - 1
				return
			}
			continue
		}
		st.verify(s.o, i, s.reply(v))
	}
}

// drivePipelined is one lane's closed loop over a window of d requests:
// this goroutine sends (flushing only when the window is full, or before
// it waits for a paced op's due time), a second one receives, reassembling
// by request id along Client's documented Send/Flush | Recv seam.
func (s *system) drivePipelined(st *stream, d int, start int64) {
	cl := s.clients[st.lane]
	base := s.sent[st.lane] + 1 // id of ops[0]
	n := len(st.ops)
	s.sent[st.lane] += uint64(n)

	tokens := make(chan struct{}, d) // the window: one token per free slot
	for i := 0; i < d; i++ {
		tokens <- struct{}{}
	}
	dead := make(chan struct{}) // closed when the transport fails
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got := 0; got < n; got++ {
			id, v, err := cl.Recv()
			now := s.now()
			i := int(id - base)
			var refused *wire.RemoteError
			switch {
			case err != nil && !errors.As(err, &refused):
				st.failed += n - got
				if st.firstErr == "" {
					st.firstErr = fmt.Sprintf("lane %d: transport: %v", st.lane, err)
				}
				close(dead)
				return
			case i < 0 || i >= n:
				st.failed++
				if st.firstErr == "" {
					st.firstErr = fmt.Sprintf("lane %d: reply for unknown request id %d", st.lane, id)
				}
			case err != nil:
				st.fail(i, "%v", err)
			default:
				st.lat[i] = now - atomic.LoadInt64(&st.sendT[i])
				st.verify(s.o, i, s.reply(v))
			}
			tokens <- struct{}{}
		}
	}()

	unflushed := 0 // ops[unflushed:i] are queued in the client's buffer
	flush := func(i int) bool {
		if cl.Flush() != nil {
			return false
		}
		if st.flushT != nil {
			now := s.now()
			for ; unflushed < i; unflushed++ {
				st.flushT[unflushed] = now
			}
		}
		unflushed = i
		return true
	}
	sendAll := func() bool {
		for i := 0; i < n; i++ {
			var t0 int64
			if st.due != nil {
				if start+st.due[i] > s.now() && !flush(i) {
					return false
				}
				t0 = s.awaitDue(st, i, start)
			}
			select {
			case <-tokens:
			default:
				// Window full: what is queued must reach the wire before
				// a slot can come back.
				if !flush(i) {
					return false
				}
				select {
				case <-tokens:
				case <-dead:
					return false
				}
			}
			if st.due == nil {
				t0 = s.now()
			}
			atomic.StoreInt64(&st.sendT[i], t0)
			st.onSend(s.o, i)
			if _, err := cl.Send(st.ops[i]); err != nil {
				return false
			}
		}
		return flush(n)
	}
	if !sendAll() {
		cl.Close() // a send failed: make sure the receiver's Recv returns
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// The server stopped answering: cut the connection so Recv returns
		// and the missing replies are counted as failed.
		cl.Close()
		<-done
	}
}

// stubServer is a canned-reply listener: it decodes each request frame and
// answers value 0 at once, coalescing replies the way the server's writer
// does. Driving a workload against it prices everything that is not the
// server's own work: the generator, the client codec, the kernel's socket
// path and a minimal peer.
type stubServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startStub() (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &stubServer{ln: ln}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			st.mu.Lock()
			st.conns = append(st.conns, c)
			st.mu.Unlock()
			st.wg.Add(1)
			go st.serve(c)
		}
	}()
	return st, nil
}

func (st *stubServer) serve(c net.Conn) {
	defer st.wg.Done()
	defer c.Close()
	dec := wire.NewDecoder(c)
	var out []byte
	for {
		payload, err := dec.Next()
		if err != nil {
			return
		}
		id, _, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		out = wire.AppendResponseFrame(out, id, 0)
		if dec.Buffered() == 0 {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

func (st *stubServer) close() {
	st.ln.Close()
	st.mu.Lock()
	for _, c := range st.conns {
		c.Close()
	}
	st.mu.Unlock()
	st.wg.Wait()
}

// startStubSystem is w's client side wired to a peer that does no work:
// the stub listener for network workloads, a constant function for the
// library one.
func startStubSystem(w *workload, o *oracle) (*system, error) {
	s := &system{o: o, epoch: time.Now()}
	if !w.net {
		s.invoke = func(int, seqspec.Op) int64 { return 0 }
		return s, nil
	}
	stub, err := startStub()
	if err != nil {
		return nil, err
	}
	s.stub = stub
	if err := s.dial(stub.ln.Addr().String()); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}
