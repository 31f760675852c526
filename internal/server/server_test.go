package server

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"waitfree/internal/core"
	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// startServer boots a test server on ephemeral ports and returns it with a
// cleanup. dir == "" runs without persistence.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerBasicOps: the whole KV surface works over a real socket.
func TestServerBasicOps(t *testing.T) {
	s := startServer(t, Config{Shards: 4, Procs: 8})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	if v, err := cl.Put(1, 10); err != nil || v != seqspec.Empty {
		t.Fatalf("put(1,10) = (%d, %v)", v, err)
	}
	if v, err := cl.Get(1); err != nil || v != 10 {
		t.Fatalf("get(1) = (%d, %v), want 10", v, err)
	}
	if v, err := cl.Len(); err != nil || v != 1 {
		t.Fatalf("len = (%d, %v), want 1", v, err)
	}
	if v, err := cl.Del(1); err != nil || v != 10 {
		t.Fatalf("del(1) = (%d, %v), want 10", v, err)
	}
	if v, err := cl.Get(1); err != nil || v != seqspec.Empty {
		t.Fatalf("get(1) after del = (%d, %v), want Empty", v, err)
	}
}

// TestClientSendAllocs: Send appends the whole frame into the client's
// reused buffer and hands it to the bufio.Writer in one write, so a queued
// request allocates nothing, spills to the connection included.
func TestClientSendAllocs(t *testing.T) {
	cl := &Client{bw: bufio.NewWriterSize(io.Discard, 4096)}
	put := seqspec.Op{Kind: "put", Args: []int64{1, 10}}
	cl.Send(put) // grow wbuf once
	if a := testing.AllocsPerRun(1000, func() {
		if _, err := cl.Send(put); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Send allocates %.1f times per request, want 0", a)
	}
}

// TestServerPipelining: many requests queued before one flush each come
// back exactly once, reassembled by id — order is the server's choice (a
// read answered inline may overtake a write), so the test demands the id
// set, not the sequence.
func TestServerPipelining(t *testing.T) {
	s := startServer(t, Config{Shards: 4, Procs: 8})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	const n = 100
	pending := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		id, err := cl.Send(seqspec.Op{Kind: "put", Args: []int64{int64(i), int64(i * 2)}})
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		if pending[id] {
			t.Fatalf("Send reused id %d", id)
		}
		pending[id] = true
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < n; i++ {
		id, _, err := cl.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !pending[id] {
			t.Fatalf("response %d has id %d: duplicate or never requested", i, id)
		}
		delete(pending, id)
	}
	if len(pending) != 0 {
		t.Fatalf("%d requests never answered", len(pending))
	}
	if v, err := cl.Get(n - 1); err != nil || v != (n-1)*2 {
		t.Fatalf("get(%d) = (%d, %v), want %d", n-1, v, err, (n-1)*2)
	}
}

// TestServerPipelinedDifferential is the pipelined-client correctness
// test: one client runs a mixed op stream fully pipelined (writes and
// dependent reads in flight together, completions arriving out of order)
// against a persistent server, while the same stream runs sequentially on
// a second fresh server. Program order per connection must be preserved —
// every pipelined response, reassembled by request id, must equal the
// sequential run's response at the same stream position. The 2-key input
// puts same-drain put k; get k; put k sequences on every run, so a routed
// get that read the shard's head instead of the writes queued ahead of it,
// or saw a write queued behind it, would answer wrongly. The lens input
// does the same for a routed len's count of the writes queued ahead of it.
func TestServerPipelinedDifferential(t *testing.T) {
	const depth = 32
	for _, in := range []struct {
		name string
		ops  []seqspec.Op
	}{
		{"16keys", mixedOps(rand.New(rand.NewSource(42)), 600, 16)},
		{"2keys", mixedOps(rand.New(rand.NewSource(42)), 5000, 2)},
		{"lens", lensOps(rand.New(rand.NewSource(42)), 3000)},
	} {
		t.Run(in.name, func(t *testing.T) {
			ops := in.ops
			want := runDifferential(t, ops, false, depth)
			got := runDifferential(t, ops, true, depth)
			for i := range ops {
				if got[i] != want[i] {
					t.Fatalf("op %d (%s): pipelined response %d, sequential %d — program order broken",
						i, ops[i], got[i], want[i])
				}
			}
		})
	}
}

// lensOps draws n ops over 2 keys that a len's count of pending writes can
// get wrong: puts of Empty and of 0 (a key holding Empty is present, so a
// presence test read from get's value fails), dels that often find their
// key absent, re-puts of present keys, and a len after three writes in
// four.
func lensOps(rng *rand.Rand, n int) []seqspec.Op {
	ops := make([]seqspec.Op, 0, n+1)
	for len(ops) < n {
		k := rng.Int63n(2)
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, seqspec.Op{Kind: "put", Args: []int64{k, seqspec.Empty}})
		case 1:
			ops = append(ops, seqspec.Op{Kind: "put", Args: []int64{k, 0}})
		default:
			ops = append(ops, seqspec.Op{Kind: "del", Args: []int64{k}})
		}
		if rng.Intn(4) != 0 {
			ops = append(ops, seqspec.Op{Kind: "len"})
		}
	}
	return ops[:n]
}

// mixedOps draws n ops over keys keys: a third puts, a sixth dels, a sixth
// lens and a third gets.
func mixedOps(rng *rand.Rand, n int, keys int64) []seqspec.Op {
	ops := make([]seqspec.Op, n)
	for i := range ops {
		k := rng.Int63n(keys)
		switch rng.Intn(6) {
		case 0, 1:
			ops[i] = seqspec.Op{Kind: "put", Args: []int64{k, rng.Int63n(1000)}}
		case 2:
			ops[i] = seqspec.Op{Kind: "del", Args: []int64{k}}
		case 3:
			ops[i] = seqspec.Op{Kind: "len"}
		default:
			ops[i] = seqspec.Op{Kind: "get", Args: []int64{k}}
		}
	}
	return ops
}

// runDifferential runs ops on a fresh persistent server, one at a time or
// pipelined with up to depth in flight, and returns each op's response.
// Durable reads never reach the construction: inline gets read the
// committer's settled states and the committer answers the rest, so the
// shards' read fast path must serve none of them.
func runDifferential(t *testing.T, ops []seqspec.Op, pipelined bool, depth int) []int64 {
	s := startServer(t, Config{Shards: 4, Procs: 8, Dir: t.TempDir(), Window: depth})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	defer func() {
		if n := s.KV().FastReads(); n != 0 {
			t.Errorf("the shards' read fast path served %d durable reads, want 0", n)
		}
	}()
	out := make([]int64, len(ops))
	if !pipelined {
		for i, op := range ops {
			v, err := cl.Do(op)
			if err != nil {
				t.Fatalf("sequential Do(%s): %v", op, err)
			}
			out[i] = v
		}
		return out
	}
	// Pipelined: keep up to depth requests in flight, reassemble by id.
	idx := make(map[uint64]int, depth)
	inFlight := 0
	recv := func() {
		id, v, err := cl.Recv()
		if err != nil {
			t.Fatalf("pipelined Recv: %v", err)
		}
		i, ok := idx[id]
		if !ok {
			t.Fatalf("response id %d: duplicate or never requested", id)
		}
		delete(idx, id)
		out[i] = v
		inFlight--
	}
	for i, op := range ops {
		if inFlight == depth {
			if err := cl.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			recv()
		}
		id, err := cl.Send(op)
		if err != nil {
			t.Fatalf("Send: %v", err)
		}
		idx[id] = i
		inFlight++
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for inFlight > 0 {
		recv()
	}
	return out
}

// TestServerPipelinedArgsReuse: the reader decodes every request into one
// reused argument buffer, so a request whose words outlived the decode by
// reference — a routed write or read, an in-memory write's log entry —
// would answer or persist the next request's words. One connection keeps
// a deep window of puts, gets, dels and lens in flight, every put with a
// fresh value; each reply must equal a sequential KV model's at the same
// stream position, and afterwards every key must read back the model's
// value, from a reopened store in durable mode. Under -race, a committer
// that read the reader's buffer would also be reported as a race.
func TestServerPipelinedArgsReuse(t *testing.T) {
	const (
		nOps  = 2000
		keys  = 64
		depth = 64
	)
	rng := rand.New(rand.NewSource(7))
	ops := make([]seqspec.Op, nOps)
	model := seqspec.KV{}.Init()
	want := make([]int64, nOps)
	for i := range ops {
		k := rng.Int63n(keys)
		switch r := rng.Intn(8); {
		case r < 4:
			ops[i] = seqspec.Op{Kind: "put", Args: []int64{k, int64(i)<<8 | k}}
		case r < 6:
			ops[i] = seqspec.Op{Kind: "get", Args: []int64{k}}
		case r < 7:
			ops[i] = seqspec.Op{Kind: "del", Args: []int64{k}}
		default:
			ops[i] = seqspec.Op{Kind: "len"}
		}
		want[i] = model.Apply(ops[i])
	}
	readBack := func(t *testing.T, cl *Client) {
		t.Helper()
		for k := int64(0); k < keys; k++ {
			get := seqspec.Op{Kind: "get", Args: []int64{k}}
			if v, err := cl.Get(k); err != nil || v != model.Apply(get) {
				t.Fatalf("get(%d) = (%d, %v), want %d", k, v, err, model.Apply(get))
			}
		}
	}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Addr: "127.0.0.1:0", Shards: 4, Procs: 8, Window: depth, SnapshotEvery: 128}
			if durable {
				cfg.Dir = t.TempDir()
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			s.Start()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			idx := make(map[uint64]int, depth)
			recv := func() {
				id, v, err := cl.Recv()
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				i, ok := idx[id]
				if !ok {
					t.Fatalf("response id %d: duplicate or never requested", id)
				}
				delete(idx, id)
				if v != want[i] {
					t.Fatalf("op %d (%s) = %d, model %d", i, ops[i], v, want[i])
				}
			}
			for i, op := range ops {
				if len(idx) == depth {
					if err := cl.Flush(); err != nil {
						t.Fatalf("Flush: %v", err)
					}
					recv()
				}
				id, err := cl.Send(op)
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
				idx[id] = i
			}
			if err := cl.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			for len(idx) > 0 {
				recv()
			}
			readBack(t, cl)
			cl.Close()
			s.Close()
			if !durable {
				return
			}
			s = startServer(t, cfg)
			cl, err = Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("Dial after reopen: %v", err)
			}
			defer cl.Close()
			readBack(t, cl)
		})
	}
}

// TestServerRefusesBadOps: unknown kinds and wrong arities come back as
// RemoteErrors without killing the connection; the KVRouter panic for
// unknown kinds must never be reachable from the socket.
func TestServerRefusesBadOps(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Procs: 4})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	bad := []seqspec.Op{
		{Kind: "enq", Args: []int64{1}},
		{Kind: "put", Args: []int64{1}},
		{Kind: "len", Args: []int64{1}},
		{Kind: ""},
	}
	for _, op := range bad {
		if _, err := cl.Do(op); err == nil {
			t.Fatalf("op %s accepted, want RemoteError", op)
		} else if _, ok := err.(*wire.RemoteError); !ok {
			t.Fatalf("op %s: err = %v, want *wire.RemoteError", op, err)
		}
	}
	// Connection survived the refusals.
	if v, err := cl.Put(5, 50); err != nil || v != seqspec.Empty {
		t.Fatalf("put after refusals = (%d, %v)", v, err)
	}
	if v, err := cl.Get(5); err != nil || v != 50 {
		t.Fatalf("get after refusals = (%d, %v), want 50", v, err)
	}
}

// TestServerMalformedFrame: a syntactically broken payload gets one error
// frame and a hangup, not a panic or a hang.
func TestServerMalformedFrame(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Procs: 4})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatalf("write: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatalf("expected an error frame before hangup, got %v", err)
	}
	if _, _, err := wire.DecodeReply(payload); err == nil {
		t.Fatalf("reply to garbage decoded as success")
	}
	// Server must now close; next read is EOF.
	if _, err := wire.ReadFrame(c, nil); err == nil {
		t.Fatalf("connection stayed open after malformed request")
	}
}

// TestServerPoolExhausted: in memory, with a single pid, a second
// concurrent connection is refused with the documented reason, and the slot
// frees up once the first client leaves. A durable connection leases no
// pid, so with the same single pid three concurrent durable connections
// are all served.
func TestServerPoolExhausted(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Procs: 1})
		first, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if _, err := first.Put(1, 1); err != nil {
			t.Fatalf("put: %v", err)
		}
		second, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		_, _, err = second.Recv()
		re, ok := err.(*wire.RemoteError)
		if !ok || re.Reason != errNoFreePid {
			t.Fatalf("second conn err = %v, want RemoteError(%q)", err, errNoFreePid)
		}
		second.Close()
		first.Close()
		// The leased pid must come back: poll until a fresh connection works.
		deadline := time.Now().Add(5 * time.Second)
		for {
			third, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			v, err := third.Get(1)
			third.Close()
			if err == nil && v == 1 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pid never returned to the pool: get = (%d, %v)", v, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
	t.Run("durable", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Procs: 1, Dir: t.TempDir()})
		var cls [3]*Client
		for i := range cls {
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cl.Close()
			cls[i] = cl
		}
		// Every connection stays open while each one writes, reads its key
		// back inline and through the committer, and counts.
		for i, cl := range cls {
			k := int64(i)
			if _, err := cl.Put(k, 10+k); err != nil {
				t.Fatalf("conn %d: put: %v", i, err)
			}
			if v, err := cl.Get(k); err != nil || v != 10+k {
				t.Fatalf("conn %d: get(%d) = (%d, %v), want %d", i, k, v, err, 10+k)
			}
			if v, err := cl.Len(); err != nil || v != k+1 {
				t.Fatalf("conn %d: len = (%d, %v), want %d", i, v, err, k+1)
			}
		}
		if n := s.leaseMiss.Load(); n != 0 {
			t.Fatalf("server.lease_miss = %d, want 0: durable connections lease no pid", n)
		}
	})
}

// TestServerShardProcs: a durable server builds every shard, a router
// only, for one process and leaves its pid pool empty; an in-memory
// server builds them for Procs processes, every pid in the pool. A
// shard's process count is the pids its Handle accepts.
func TestServerShardProcs(t *testing.T) {
	procs := func(u *core.Universal) (n int) {
		defer func() { recover() }() // Handle panics past the last pid
		for ; n < 64; n++ {
			u.Handle(n)
		}
		return n
	}
	for _, c := range []struct {
		name        string
		dir         string
		procs, pool int
	}{{"memory", "", 4, 4}, {"durable", t.TempDir(), 1, 0}} {
		t.Run(c.name, func(t *testing.T) {
			s := startServer(t, Config{Shards: 3, Procs: 4, Dir: c.dir})
			for sh := 0; sh < s.kv.Shards(); sh++ {
				if n := procs(s.kv.Shard(sh)); n != c.procs {
					t.Errorf("shard %d has %d processes, want %d", sh, n, c.procs)
				}
			}
			if n := len(s.pool); n != c.pool {
				t.Errorf("%d pids in the pool, want %d", n, c.pool)
			}
		})
	}
}

// TestServerConcurrentLinearizable: concurrent clients over real sockets
// record a history that must linearize against the sequential KV. In the
// durable case every client pipelines rounds of put k; get k; then a put,
// a put of Empty or a del of k; then len, on 2 shared keys, so each read
// is routed behind its own writes and answered by the committer from a
// drain that also holds other connections' writes. Pipelined ops of one
// client overlap in real time, so each is recorded with the op before it
// as its program-order predecessor: the server promises that a read sees
// its connection's earlier writes to its key (to every key for a len) and
// that a write follows its connection's earlier ops on its key. Put values
// are unique, so a read that saw a stale write or one queued behind it
// cannot be explained by another client's write of the same value.
func TestServerConcurrentLinearizable(t *testing.T) {
	const (
		clients = 6
		ops     = 12
		keys    = 2
	)
	t.Run("memory", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Procs: 16})
		checkLinearizable(t, s, clients, func(p int, cl *Client, rec *linearize.Recorder) error {
			rng := rand.New(rand.NewSource(int64(p) * 7919))
			for i := 0; i < ops; i++ {
				var op seqspec.Op
				switch rng.Intn(3) {
				case 0:
					op = seqspec.Op{Kind: "put", Args: []int64{rng.Int63n(keys), rng.Int63n(50)}}
				case 1:
					op = seqspec.Op{Kind: "get", Args: []int64{rng.Int63n(keys)}}
				default:
					op = seqspec.Op{Kind: "del", Args: []int64{rng.Int63n(keys)}}
				}
				ts := rec.Invoke()
				v, err := cl.Do(op)
				if err != nil {
					return fmt.Errorf("Do(%s): %w", op, err)
				}
				rec.Complete(p, op, v, ts)
			}
			return nil
		})
	})
	t.Run("durable-pipelined", func(t *testing.T) {
		s := startServer(t, Config{Shards: 2, Procs: 16, Dir: t.TempDir()})
		const rounds = ops / 2
		checkLinearizable(t, s, clients, func(p int, cl *Client, rec *linearize.Recorder) error {
			rng := rand.New(rand.NewSource(int64(p) * 7919))
			for i := 0; i < rounds; i++ {
				k, val := rng.Int63n(keys), int64(p*1000+i*10)
				second := seqspec.Op{Kind: "put", Args: []int64{k, val + 1}}
				switch rng.Intn(3) {
				case 0:
					second = seqspec.Op{Kind: "put", Args: []int64{k, seqspec.Empty}}
				case 1:
					second = seqspec.Op{Kind: "del", Args: []int64{k}}
				}
				round := [4]seqspec.Op{
					{Kind: "put", Args: []int64{k, val}},
					{Kind: "get", Args: []int64{k}},
					second,
					{Kind: "len"},
				}
				ids := make(map[uint64]int, len(round))
				var ts [len(round)]int64
				for j, op := range round {
					ts[j] = rec.Invoke()
					id, err := cl.Send(op)
					if err != nil {
						return fmt.Errorf("Send(%s): %w", op, err)
					}
					ids[id] = j
				}
				if err := cl.Flush(); err != nil {
					return fmt.Errorf("Flush: %w", err)
				}
				for range round {
					id, v, err := cl.Recv()
					if err != nil {
						return fmt.Errorf("Recv: %w", err)
					}
					j, ok := ids[id]
					if !ok {
						return fmt.Errorf("response id %d: duplicate or never requested", id)
					}
					delete(ids, id)
					var after int64
					if j > 0 {
						after = ts[j-1]
					}
					rec.CompleteAfter((p*rounds+i)*len(round)+j, round[j], v, ts[j], after)
				}
			}
			return nil
		})
	})
}

// checkLinearizable runs clients connections to s at once, each driven by
// run, and requires the history they record to linearize against the
// sequential KV.
func checkLinearizable(t *testing.T, s *Server, clients int, run func(p int, cl *Client, rec *linearize.Recorder) error) {
	t.Helper()
	var rec linearize.Recorder
	var wg sync.WaitGroup
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cl, err := Dial(s.Addr().String())
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer cl.Close()
			if err := run(p, cl, &rec); err != nil {
				t.Errorf("client %d: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	res := linearize.Check(seqspec.KV{}, rec.History())
	if !res.OK {
		t.Fatalf("history over the socket is not linearizable (%d states searched)", res.States)
	}
}

// TestServerLeaseChurnGC is the acceptance test for the departed-client
// fix: under connection churn — clients that connect, write, and leave —
// the decided logs keep retiring entries. Before Detach-on-disconnect,
// every pool pid that had ever served a client pinned the low-water mark
// at that client's last write forever, so Retired() froze and the logs
// grew without bound.
//
// The pool holds more pids than there are sessions and hands them out in
// FIFO order, so no pid is leased twice. With a small pool every pid came
// back within a few sessions and re-observed the log, which moved its pin
// along and let the test pass even with the Detach call removed. Each
// session writes exactly core.DefaultGCEvery puts to each shard, so its
// fresh pid runs one mark advance per shard, on its last write there.
func TestServerLeaseChurnGC(t *testing.T) {
	sessions := 60
	if testing.Short() {
		sessions = 20
	}
	s := startServer(t, Config{Shards: 2, Procs: sessions + 4})
	var keys [2][]int64 // four keys routed to each shard
	for k := int64(0); len(keys[0]) < 4 || len(keys[1]) < 4; k++ {
		if sh := s.KV().ShardOf(k); len(keys[sh]) < 4 {
			keys[sh] = append(keys[sh], k)
		}
	}
	const opsPerSession = 2 * core.DefaultGCEvery
	var lastRetired int64
	grew := 0
	for sess := 0; sess < sessions; sess++ {
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		for i := 0; i < opsPerSession; i++ {
			if _, err := cl.Put(keys[i%2][i/2%4], int64(sess)); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		cl.Close()
		// The server detaches the departed pid in serveConn's deferred
		// cleanup, after the client has already hung up; connsActive drops
		// only once Detach has run. Sample before that and the next
		// session's GC advance can still see the old pid pinning the mark.
		deadline := time.Now().Add(5 * time.Second)
		for s.connsActive.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("session %d: connection still active 5s after Close", sess)
			}
			time.Sleep(time.Millisecond)
		}
		if r := s.KV().Retired(); r > lastRetired {
			lastRetired = r
			grew++
		}
	}
	if lastRetired == 0 {
		t.Fatalf("Retired() never advanced over %d churned sessions: departed clients still pin log GC", sessions)
	}
	if grew < 3 {
		t.Fatalf("Retired() advanced only %d times over %d sessions; GC is effectively pinned", grew, sessions)
	}
	t.Logf("retired %d log entries across %d churned sessions", lastRetired, sessions)
}

// TestServerIdleConnDoesNotPinGC: a connected client that has gone quiet
// must not pin what a busy one writes. Client A sends one get and stays
// connected; client B then pipelines batches of puts into the same single
// shard. In memory B writes in two rounds, each of batches 5 ms apart until
// the shard's anchor has advanced and Retired() grown, and fails if that
// has not happened within 40 batches (an unpinned mark advances every 64
// puts): the reader detaches its pid once a read has waited idleDetach,
// where before A's register froze at its get and held the low-water mark
// there for as long as A stayed connected. A durable server keeps no log
// for A to pin: after B's 40 batches the heap must stay under 16 MB, where
// a log pinned at A's get held about 58 MB.
func TestServerIdleConnDoesNotPinGC(t *testing.T) {
	const depth = 256 // puts per batch: a window's worth per flush
	// start parks client A after one get on a server built from cfg and
	// returns the server and client B.
	start := func(t *testing.T, cfg Config) (*Server, *Client) {
		s := startServer(t, cfg)
		a, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		if _, err := a.Get(1); err != nil {
			t.Fatalf("idle client's get: %v", err)
		}
		b, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { b.Close() })
		return s, b
	}
	// putBatch pipelines depth puts from b, tagged batch, and waits for
	// their replies.
	putBatch := func(t *testing.T, b *Client, batch int) {
		for j := 0; j < depth; j++ {
			if _, err := b.Send(seqspec.Op{Kind: "put", Args: []int64{int64(j), int64(batch)}}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for j := 0; j < depth; j++ {
			if _, _, err := b.Recv(); err != nil {
				t.Fatalf("Recv: %v", err)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		s, b := start(t, Config{Shards: 1, Procs: 8})
		var anchor, retired int64
		for r, batch := 0, 0; r < 2; r++ {
			for tries := 1; ; tries++ {
				putBatch(t, b, batch)
				batch++
				nowAnchor, nowRetired := s.KV().Anchors()[0], s.KV().Retired()
				if nowAnchor > anchor && nowRetired > retired {
					anchor, retired = nowAnchor, nowRetired
					break
				}
				if tries == 40 {
					t.Fatalf("round %d, %d batches of %d puts with an idle client connected: anchor %d → %d, retired %d → %d; want both to grow",
						r, tries, depth, anchor, nowAnchor, retired, nowRetired)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	})
	t.Run("durable", func(t *testing.T) {
		_, b := start(t, Config{Shards: 1, Procs: 8, Dir: t.TempDir()})
		for batch := 0; batch < 40; batch++ {
			putBatch(t, b, batch)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if limit := uint64(16 << 20); ms.HeapAlloc > limit {
			t.Fatalf("heap %d bytes after %d puts with an idle client connected, want under %d", ms.HeapAlloc, 40*depth, limit)
		}
	})
}

// TestServerStatsEndpoint: the HTTP side serves JSON with the server,
// committer (its direct acks included) and shard metrics in it, the boot
// report under /recovery, and the runtime profiles under /debug/pprof/.
func TestServerStatsEndpoint(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Procs: 4, StatsAddr: "127.0.0.1:0", Dir: t.TempDir()})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := cl.Put(1, 2); err != nil {
		t.Fatalf("put: %v", err)
	}
	cl.Close()

	found := map[string]bool{}
	for _, smp := range s.Metrics().Snapshot() {
		found[smp.Name] = true
	}
	for _, want := range []string{"server.conns_total", "server.ops", "server.conns_active", "shard.imbalance_pct", "server.commit_queue", "server.commit_drain", "server.acks_direct"} {
		if !found[want] {
			t.Errorf("metric %q missing from registry", want)
		}
	}

	c, err := net.Dial("tcp", s.StatsAddr().String())
	if err != nil {
		t.Fatalf("dial stats: %v", err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /stats HTTP/1.0\r\n\r\n")
	buf := make([]byte, 1<<16)
	n, _ := c.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "200 OK") || !strings.Contains(body, "server.ops") ||
		!strings.Contains(body, "server.commit_queue") || !strings.Contains(body, "server.commit_drain") ||
		!strings.Contains(body, "server.acks_direct") {
		t.Fatalf("stats response missing expected content:\n%s", body)
	}

	// The boot report: a fresh directory loads and replays nothing.
	boot := getRecovery(t, s)
	for _, k := range []string{"snapshots_loaded", "snapshots_rejected", "records_replayed", "records_skipped", "torn_bytes", "orphans", "wall_us"} {
		if v, ok := boot[k]; !ok || (k != "wall_us" && v != 0) {
			t.Errorf("/recovery %s = %d (present %v), want 0 on a fresh directory", k, v, ok)
		}
	}

	// Profiles are served from the same listener.
	pc, err := net.Dial("tcp", s.StatsAddr().String())
	if err != nil {
		t.Fatalf("dial stats: %v", err)
	}
	defer pc.Close()
	fmt.Fprintf(pc, "GET /debug/pprof/goroutine?debug=1 HTTP/1.0\r\n\r\n")
	prof, err := io.ReadAll(pc)
	if err != nil || !strings.Contains(string(prof), "200 OK") || !strings.Contains(string(prof), "goroutine") {
		t.Fatalf("GET /debug/pprof/goroutine?debug=1: %v\n%.500s", err, prof)
	}
}
