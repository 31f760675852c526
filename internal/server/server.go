// Package server is the networked service tier: a TCP front end that
// multiplexes many client connections onto one waitfree sharded KV, with
// optional crash recovery through internal/logstore.
//
// Division of labour with the core: everything in this package is ordinary
// blocking Go — goroutines, channels, sockets, fsync — while every shared
// datum behind it is the wait-free universal construction. The boundary is
// the pid lease pool: a connection leases a process id for its lifetime,
// drives reads through it, and on disconnect calls Detach(pid) before
// returning the pid to the pool, releasing the departed client's log-GC pin
// (the PR 8 bugfix; without the Detach, every pid that ever went idle pinned
// the low-water mark forever and the decided logs grew without bound under
// connection churn).
//
// Each connection is pipelined: a reader goroutine decodes a stream of
// frames (many per read syscall, through wire.Decoder), and a writer
// goroutine coalesces every ready response into one buffered socket write
// per wakeup. Requests carry ids and may complete out of order — a read
// answered inline from the wait-free fast path overtakes an earlier write
// still waiting on its fsync — and the client reassembles by id. A window
// of slot tokens (Config.Window) bounds the per-connection outstanding
// requests, which is what makes every internal channel send non-blocking
// and the shutdown hand-off (reclaim every slot, then close the completion
// channel) race-free.
//
// Persistence (Config.Dir != "") follows persist-before-apply: writes are
// routed to a per-shard applier goroutine that assigns the shard's next
// dense sequence numbers, appends the whole drained batch to the log store
// as one group (logstore.AppendBatch; concurrent appliers still share one
// fsync through the store's flusher), and only then applies the batch to
// the in-memory KV — through the shard's helping batcher
// (shard.InvokeBatch), one replay pass and one snapshot per drain — and
// acks each client. An acked write is therefore on disk before any client
// observes it, which is exactly what boot-time replay reconstructs —
// durable linearizability. Snapshots are each shard's own state
// (core.Universal.State); the server keeps no second copy of the KV. Reads
// never touch the store; a get is answered inline from the connection's
// leased pid unless this same connection has writes still in flight on the
// key's shard, in which case it is routed through the applier FIFO behind
// them (read-your-writes in program order); a len barriers every shard the
// connection has dirtied.
//
// The package sits at the syscall boundary — sockets, fsync and channels
// block by design, and every function that does carries its own
// //wf:blocking directive — while all wait-freedom claims live below, in
// the objects this package fronts. The persist-before-apply contract is
// machine-checked: //wf:persist / //wf:ack marks pin the ordering for
// wfvet's ackpersist analyzer, and every goroutine declares its shutdown
// edge with //wf:owns for the goown analyzer.
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"waitfree"
	"waitfree/internal/logstore"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
	"waitfree/internal/wfstats"
	"waitfree/internal/wire"
)

// Config parameterises a Server.
type Config struct {
	Addr          string                           // TCP listen address, e.g. ":7450"; ":0" for ephemeral
	StatsAddr     string                           // HTTP stats address; "" disables the stats server
	Shards        int                              // KV shard count (default 8)
	Procs         int                              // connection pid pool size (default 64)
	Window        int                              // max in-flight requests per connection (default 256)
	Dir           string                           // log store directory; "" runs without persistence
	SnapshotEvery int                              // records per shard between snapshots (default 4096)
	Logf          func(format string, args ...any) // nil silences logging
}

func (c *Config) fill() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Procs <= 0 {
		c.Procs = 64
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// kvSpec classifies the service's operation surface; ReadOnly detection is
// what routes gets and lens onto the inline fast path.
var kvSpec = seqspec.KV{}

// completion is one finished request on its way to a connection's writer:
// err != "" acks as a wire error frame, and fatal tells the writer to
// close the connection after the flush that carries it (the stream past a
// malformed request or a failed persist is not trustworthy).
type completion struct {
	id    uint64
	v     int64
	err   string
	fatal bool
}

// connState is the per-connection plumbing shared by the reader goroutine,
// the writer goroutine and the shard appliers a request may pass through.
type connState struct {
	c net.Conn
	// ch carries completions to the writer. Capacity Window and the slot
	// tokens below make every send non-blocking: a request holds a slot
	// from decode to flush, so at most Window completions are ever in
	// flight, and the channel can absorb all of them.
	ch chan completion
	// slots is the window: the reader acquires one token per request, the
	// writer releases one per flushed response. Reclaiming all Window
	// tokens is the reader's proof that nothing references ch any more.
	slots chan struct{}
	// outW[sh] counts this connection's writes handed to shard sh's
	// applier and not yet applied; outWT is the total. The reader consults
	// them to decide whether a read may take the inline fast path or must
	// queue behind the connection's own writes.
	outW  []atomic.Int64
	outWT atomic.Int64
}

// applyReq is one unit handed to a shard applier: a write to persist and
// apply, a read (read == true) queued behind a connection's earlier writes
// on that shard, or a barrier (barrier != nil) closed once everything
// ahead of it has been applied.
type applyReq struct {
	op      seqspec.Op
	id      uint64
	w       *connState
	read    bool
	barrier chan struct{}
}

// Server is a running service-tier instance.
type Server struct {
	cfg   Config
	kv    *shard.Sharded
	store *logstore.Store // nil when running without persistence
	reg   *wfstats.Registry

	ln      net.Listener
	statsLn net.Listener
	pool    chan int // free connection pids

	appliers []chan applyReq // one per shard; nil when store == nil

	connsActive   atomic.Int64
	connsTotal    *wfstats.Counter
	opsServed     *wfstats.Counter
	opsRefused    *wfstats.Counter
	leaseMiss     *wfstats.Counter
	recsLogged    *wfstats.Counter
	snapsTaken    *wfstats.Counter
	writerFlushes *wfstats.Counter // coalesced socket writes
	writerFrames  *wfstats.Counter // response frames carried by those writes

	closed atomic.Bool
	connWG sync.WaitGroup // connection readers and writers
	loopWG sync.WaitGroup // accept loop, stats server, appliers
}

// New builds the KV, replays the log store if a directory is configured,
// and binds the listeners. The server does not accept connections until
// Start.
//
//wf:blocking opens the store, replays the log and seeds the pid pool channel
func New(cfg Config) (*Server, error) {
	cfg.fill()
	reg := wfstats.NewRegistry()
	kv := waitfree.NewShardedKV(cfg.Shards, cfg.Procs+cfg.Shards,
		func() waitfree.FetchAndCons { return waitfree.NewSwapFetchAndCons() },
		waitfree.WithMetrics(reg))
	kv.Instrument(reg)

	s := &Server{
		cfg:           cfg,
		kv:            kv,
		reg:           reg,
		pool:          make(chan int, cfg.Procs),
		connsTotal:    reg.Counter("server.conns_total"),
		opsServed:     reg.Counter("server.ops"),
		opsRefused:    reg.Counter("server.ops_refused"),
		leaseMiss:     reg.Counter("server.lease_miss"),
		recsLogged:    reg.Counter("server.records_logged"),
		snapsTaken:    reg.Counter("server.snapshots"),
		writerFlushes: reg.Counter("server.writer_flushes"),
		writerFrames:  reg.Counter("server.writer_frames"),
	}
	reg.GaugeFunc("server.conns_active", s.connsActive.Load)
	for pid := 0; pid < cfg.Procs; pid++ {
		s.pool <- pid
	}

	if cfg.Dir != "" {
		start := time.Now()
		st, err := logstore.Open(cfg.Dir)
		if err != nil {
			return nil, err
		}
		s.store = st
		snaps, replayed, err := s.startAppliers()
		if err != nil {
			st.Close()
			return nil, err
		}
		boot := st.Stats()
		cfg.Logf("server: recovered %s in %v: %d snapshots loaded, %d records replayed, %d torn bytes truncated, %d orphans removed",
			cfg.Dir, time.Since(start).Round(time.Microsecond), snaps, replayed, boot.TornBytes, boot.Orphans)
		reg.GaugeFunc("logstore.segments", func() int64 { return st.Stats().LogFiles })
		reg.GaugeFunc("logstore.fsyncs", func() int64 { return st.Stats().Fsyncs })
		reg.GaugeFunc("logstore.batches", func() int64 { return st.Stats().Batches })
		reg.GaugeFunc("logstore.torn_bytes", func() int64 { return boot.TornBytes })
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.stopAppliers()
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	s.ln = ln
	if cfg.StatsAddr != "" {
		sln, err := net.Listen("tcp", cfg.StatsAddr)
		if err != nil {
			ln.Close()
			s.stopAppliers()
			if s.store != nil {
				s.store.Close()
			}
			return nil, err
		}
		s.statsLn = sln
	}
	return s, nil
}

// applierPid returns the pid reserved for shard sh's applier goroutine
// (appliers occupy the pid range above the connection pool).
func (s *Server) applierPid(sh int) int { return s.cfg.Procs + sh }

// startAppliers replays the store into the fresh KV and launches one
// applier goroutine per shard. Replay order matches commit order: the
// newest validated snapshot per shard first, then every durable log record
// above it. Every key stored under shard sh must route to sh, because the
// appliers snapshot each shard's own state (DESIGN.md §4), so a store
// written with another shard count is refused. It returns how many
// snapshots it loaded and records it replayed.
//
//wf:blocking replays the store and launches the blocking appliers
func (s *Server) startAppliers() (snapsLoaded, replayed int, err error) {
	nextSeq := make([]uint64, s.cfg.Shards)
	for i := range nextSeq {
		nextSeq[i] = 1
	}
	snaps, err := s.store.Snapshots()
	if err != nil {
		return 0, 0, err
	}
	for _, snap := range snaps {
		sh := int(snap.Shard)
		if sh >= s.cfg.Shards {
			return 0, 0, fmt.Errorf("server: store has shard %d, server configured with %d shards", sh, s.cfg.Shards)
		}
		pid := s.applierPid(sh)
		for k, v := range snap.State {
			if err := s.checkRoute(sh, k); err != nil {
				return 0, 0, err
			}
			s.kv.Invoke(pid, seqspec.Op{Kind: "put", Args: []int64{k, v}})
		}
		nextSeq[sh] = snap.Seq + 1
	}
	sinceSnap := make([]int, s.cfg.Shards)
	err = s.store.Replay(func(rec logstore.Record) error {
		sh := int(rec.Shard)
		if sh >= s.cfg.Shards {
			return fmt.Errorf("server: record for shard %d, server configured with %d shards", sh, s.cfg.Shards)
		}
		if key, keyed := shard.KVRouter(rec.Op); keyed {
			if err := s.checkRoute(sh, key); err != nil {
				return err
			}
		}
		s.kv.Invoke(s.applierPid(sh), rec.Op)
		nextSeq[sh] = rec.Seq + 1
		sinceSnap[sh]++
		replayed++
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	s.appliers = make([]chan applyReq, s.cfg.Shards)
	for sh := 0; sh < s.cfg.Shards; sh++ {
		ch := make(chan applyReq, 256)
		s.appliers[sh] = ch
		s.loopWG.Add(1)
		//wf:owns ch stopAppliers closes every applier channel; the range drains and exits
		go s.runApplier(sh, ch, nextSeq[sh], sinceSnap[sh])
	}
	return len(snaps), replayed, nil
}

// checkRoute refuses a key stored under shard sh that routes elsewhere.
func (s *Server) checkRoute(sh int, key int64) error {
	if to := s.kv.ShardOf(key); to != sh {
		return fmt.Errorf("server: store shard %d holds key %d, which routes to shard %d of %d: the store was written with another shard count", sh, key, to, s.cfg.Shards)
	}
	return nil
}

// runApplier is shard sh's single writer: it drains a batch of pending
// requests (one blocking receive, then a non-blocking sweep), persists
// every write in the drain as one group through AppendBatch (the store's
// flusher merges groups from concurrent appliers into one fsync), then
// applies the drain in arrival order — contiguous write runs go through
// the shard's helping batcher in one replay pass (shard.InvokeBatch),
// routed reads are answered at their queue position, barriers are closed —
// and builds each completion. Building completions strictly after
// AppendBatch returns is the durability contract — no client can observe
// a write that a crash could lose; wfvet's ackpersist analyzer checks
// that every marked ack below is dominated by the marked group commit.
//
// Every SnapshotEvery records it persists the shard's own state: as the
// shard's only writer, between drains its decided list holds exactly the
// records 1..seq-1.
//
//wf:blocking waits on the applier channel and the store's group commit
func (s *Server) runApplier(sh int, ch chan applyReq, seq uint64, sinceSnap int) {
	defer s.loopWG.Done()
	pid := s.applierPid(sh)
	batch := make([]applyReq, 0, 64)
	recs := make([]logstore.Record, 0, 64)
	runOps := make([]seqspec.Op, 0, 64)
	runOut := make([]int64, 64)
	for req := range ch {
		batch = append(batch[:0], req)
	gather:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-ch:
				if !ok {
					break gather
				}
				batch = append(batch, more)
			default:
				break gather
			}
		}
		recs = recs[:0]
		for i := range batch {
			if batch[i].read || batch[i].barrier != nil {
				continue
			}
			recs = append(recs, logstore.Record{Shard: uint32(sh), Seq: seq + uint64(len(recs)), Op: batch[i].op})
		}
		//wf:persist the drain's single group commit: no completion below is built before AppendBatch returns
		if err := s.store.AppendBatch(recs); err != nil {
			for i := range batch {
				it := &batch[i]
				if it.barrier != nil {
					close(it.barrier)
					continue
				}
				if !it.read {
					it.w.outW[sh].Add(-1)
					it.w.outWT.Add(-1)
				}
				it.w.ch <- completion{id: it.id, err: "persist: " + err.Error(), fatal: true} //wf:ack the failure is client-visible too
			}
			continue
		}
		seq += uint64(len(recs))
		s.recsLogged.Add(int64(len(recs)))
		for i := 0; i < len(batch); {
			it := &batch[i]
			if it.barrier != nil {
				close(it.barrier)
				i++
				continue
			}
			if it.read {
				// A read routed here queued behind this connection's own
				// writes; its position in the FIFO is its ordering.
				it.w.ch <- completion{id: it.id, v: s.kv.Invoke(pid, it.op)} //wf:ack ordered behind the conn's persisted writes
				i++
				continue
			}
			j := i + 1
			for j < len(batch) && !batch[j].read && batch[j].barrier == nil {
				j++
			}
			run := batch[i:j]
			runOps = runOps[:0]
			for k := range run {
				runOps = append(runOps, run[k].op)
			}
			s.kv.InvokeBatch(sh, pid, runOps, runOut[:len(run)])
			for k := range run {
				run[k].w.outW[sh].Add(-1)
				run[k].w.outWT.Add(-1)
				run[k].w.ch <- completion{id: run[k].id, v: runOut[k]} //wf:ack durable before visible
			}
			sinceSnap += len(run)
			i = j
		}
		if sinceSnap >= s.cfg.SnapshotEvery {
			sinceSnap = 0
			snap := logstore.Snapshot{Shard: uint32(sh), Seq: seq - 1, State: seqspec.KVPairs(s.kv.Shard(sh).State(pid))}
			if err := s.store.WriteSnapshot(snap); err != nil {
				s.cfg.Logf("server: shard %d snapshot: %v", sh, err)
				continue
			}
			s.snapsTaken.Inc()
			if _, err := s.store.Compact(); err != nil {
				s.cfg.Logf("server: compact: %v", err)
			}
		}
	}
}

func (s *Server) stopAppliers() {
	for _, ch := range s.appliers {
		if ch != nil {
			close(ch)
		}
	}
	s.appliers = nil
}

// Start begins accepting connections (and serving stats, if configured).
// It returns immediately; use Close to stop.
//
//wf:blocking launches the blocking accept and stats loops
func (s *Server) Start() {
	s.loopWG.Add(1)
	//wf:owns s.ln Close closes the listener; Accept fails and the loop returns
	go s.acceptLoop()
	if s.statsLn != nil {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			s.reg.WriteJSON(w)
		})
		mux.HandleFunc("/stats.txt", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			s.reg.WriteText(w)
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{"ok": true, "conns": s.connsActive.Load()})
		})
		srv := &http.Server{Handler: mux}
		s.loopWG.Add(1)
		//wf:owns s.statsLn Close closes the stats listener; Serve returns
		go func() {
			defer s.loopWG.Done()
			srv.Serve(s.statsLn)
		}()
	}
}

// Addr returns the listener's address (useful with Addr ":0" in tests).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// StatsAddr returns the stats listener's address, or nil if disabled.
func (s *Server) StatsAddr() net.Addr {
	if s.statsLn == nil {
		return nil
	}
	return s.statsLn.Addr()
}

// Metrics exposes the server's registry (shared with the KV shards).
func (s *Server) Metrics() *wfstats.Registry { return s.reg }

// KV exposes the underlying sharded object for white-box tests.
func (s *Server) KV() *shard.Sharded { return s.kv }

// Store exposes the log store (nil without persistence) for white-box
// tests and benchmarks.
func (s *Server) Store() *logstore.Store { return s.store }

//wf:blocking accepts until the listener closes
func (s *Server) acceptLoop() {
	defer s.loopWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		//wf:owns c closing the connection (client side or a fatal completion in connWriter) ends the Decoder's read
		go s.serveConn(c)
	}
}

// errNoFreePid is the reason sent (with request id 0) when the pid pool is
// exhausted; the connection is then closed.
const errNoFreePid = "no free pid: connection pool exhausted"

// serveConn runs a connection's lifetime: lease a pid, start the writer,
// run the read loop, then hand the window back. The shutdown edge is the
// slot reclaim: once the reader re-acquires every one of the Window slot
// tokens, every request this connection ever admitted has been flushed
// (or dropped by a failed writer) and released — no applier holds a
// reference to the connection any more — so closing the completion
// channel is safe and the writer's range drains out.
//
//wf:blocking socket reads, pid-pool handoff and the window reclaim
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer c.Close()
	s.connsTotal.Inc()

	var pid int
	select {
	case pid = <-s.pool:
	default:
		s.leaseMiss.Inc()
		wire.WriteFrame(c, wire.AppendError(nil, 0, errNoFreePid))
		return
	}
	s.connsActive.Add(1)
	defer func() {
		// The departed-client fix: swing this pid's observed-prefix
		// register out of every shard's min-scan before the pid goes
		// back in the pool, so an idle pool slot cannot pin log GC.
		s.kv.Detach(pid)
		s.connsActive.Add(-1)
		s.pool <- pid
	}()

	w := &connState{
		c:     c,
		ch:    make(chan completion, s.cfg.Window),
		slots: make(chan struct{}, s.cfg.Window),
		outW:  make([]atomic.Int64, s.cfg.Shards),
	}
	for i := 0; i < s.cfg.Window; i++ {
		w.slots <- struct{}{}
	}
	s.connWG.Add(1)
	//wf:owns w.ch the reader reclaims every window slot (so nothing is in flight) and closes the completion channel; the writer's range drains and exits
	go s.connWriter(w)

	s.readLoop(pid, w)

	for i := 0; i < s.cfg.Window; i++ {
		<-w.slots
	}
	close(w.ch)
}

// readLoop is a connection's reader half: it decodes the pipelined request
// stream and dispatches each request — refusals and in-memory operations
// complete right here, reads go through serveRead's fast path, and durable
// writes are handed to their shard's applier, to complete from there. One
// slot token is held per request from decode to flush.
//
//wf:blocking socket reads, window acquisition and the applier hand-off
func (s *Server) readLoop(pid int, w *connState) {
	dec := wire.NewDecoder(w.c)
	for {
		payload, err := dec.Next()
		if err != nil {
			return // clean EOF, torn frame or oversize — all end the conn
		}
		<-w.slots
		id, op, err := wire.DecodeRequest(payload)
		if err != nil {
			// The stream itself is untrustworthy past a malformed
			// request; answer once and have the writer hang up.
			s.opsRefused.Inc()
			w.ch <- completion{id: id, err: "malformed request: " + err.Error(), fatal: true}
			return
		}
		//wf:persist a durable write group-commits in runApplier before its completion is built; reads, refusals and in-memory operations have nothing to persist
		if reason := validateOp(op); reason != "" {
			// A well-framed but unsupported op is the client's bug, not
			// a protocol failure; refuse it and keep the connection.
			// (KVRouter panics on unknown kinds — a hostile peer must
			// not reach it.)
			s.opsRefused.Inc()
			w.ch <- completion{id: id, err: reason}
			continue
		}
		s.opsServed.Inc()
		if kvSpec.ReadOnly(op) {
			s.serveRead(pid, w, id, op)
			continue
		}
		if s.store != nil {
			sh := s.kv.ShardOf(op.Arg(0))
			w.outW[sh].Add(1)
			w.outWT.Add(1)
			s.appliers[sh] <- applyReq{op: op, id: id, w: w}
			continue
		}
		w.ch <- completion{id: id, v: s.kv.Invoke(pid, op)} //wf:ack in-memory mode: applied and client-visible with nothing to persist
	}
}

// serveRead answers a read-only operation. Reads never touch the store;
// the only question is ordering against the connection's own in-flight
// writes: a get on a shard where this connection still has writes queued
// (and a len while any shard is dirty) must not be answered from
// pre-write state, so it is routed through — or barriered behind — the
// applier FIFO. Otherwise the read completes inline from the wait-free
// read fast path without touching an applier. Nothing is persisted on
// either path.
//
//wf:blocking a routed read or barrier queues behind the applier FIFO
func (s *Server) serveRead(pid int, w *connState, id uint64, op seqspec.Op) {
	if op.Kind == "get" {
		sh := s.kv.ShardOf(op.Arg(0))
		if s.store != nil && w.outW[sh].Load() > 0 {
			s.appliers[sh] <- applyReq{op: op, id: id, w: w, read: true}
			return
		}
		w.ch <- completion{id: id, v: s.kv.Invoke(pid, op)}
		return
	}
	// len is a cross-shard sum; barrier every shard this connection has
	// dirtied before reading.
	if s.store != nil && w.outWT.Load() > 0 {
		s.awaitApplied(w)
	}
	w.ch <- completion{id: id, v: s.kv.Invoke(pid, op)}
}

// awaitApplied blocks until every write this connection has routed to an
// applier is applied: one barrier request per dirty shard, closed by its
// applier at the barrier's queue position. The reader is the only
// goroutine that adds writes, so a shard sampled clean stays clean.
//
//wf:blocking one barrier round trip per dirty shard
func (s *Server) awaitApplied(w *connState) {
	barriers := make([]chan struct{}, 0, len(w.outW))
	for sh := range w.outW {
		if w.outW[sh].Load() > 0 {
			b := make(chan struct{})
			s.appliers[sh] <- applyReq{w: w, barrier: b}
			barriers = append(barriers, b)
		}
	}
	for _, b := range barriers {
		<-b
	}
}

// maxCoalesce bounds the bytes one writer wakeup packs into a single
// socket write; past this the writer flushes and comes back for the rest.
const maxCoalesce = 64 << 10

// connWriter is a connection's writer half and the connection's only
// socket writer: it waits for a completion, then drains every other
// completion already ready (up to maxCoalesce bytes) into one pooled
// buffer and pushes the whole coalesced batch onto the socket with a
// single write syscall. Slot tokens are released only after the flush
// that carried their responses — release is what lets the reader admit
// the next request, and at shutdown, what proves the window is quiet. A
// failed or fatal connection keeps draining and releasing so shutdown
// never deadlocks; the bytes just stop going out.
//
//wf:blocking waits on the completion channel and the socket write
func (s *Server) connWriter(w *connState) {
	defer s.connWG.Done()
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	failed := false
	for c := range w.ch {
		n := 1
		*buf = appendCompletion((*buf)[:0], c)
		fatal := c.fatal
	coalesce:
		for len(*buf) < maxCoalesce {
			select {
			case more, ok := <-w.ch:
				if !ok {
					break coalesce
				}
				*buf = appendCompletion(*buf, more)
				n++
				fatal = fatal || more.fatal
			default:
				break coalesce
			}
		}
		if !failed {
			if _, err := w.c.Write(*buf); err != nil {
				failed = true
				w.c.Close()
			} else {
				s.writerFlushes.Inc()
				s.writerFrames.Add(int64(n))
			}
		}
		for i := 0; i < n; i++ {
			w.slots <- struct{}{}
		}
		if fatal && !failed {
			failed = true
			w.c.Close()
		}
	}
}

// appendCompletion encodes one completion as its wire frame.
func appendCompletion(b []byte, c completion) []byte {
	if c.err != "" {
		return wire.AppendErrorFrame(b, c.id, c.err)
	}
	return wire.AppendResponseFrame(b, c.id, c.v)
}

// validateOp admits exactly the KV surface the router understands; the
// empty string means valid.
func validateOp(op seqspec.Op) string {
	var want int
	switch op.Kind {
	case "put":
		want = 2
	case "get", "del":
		want = 1
	case "len":
		want = 0
	default:
		return "unknown op kind " + fmt.Sprintf("%q", op.Kind)
	}
	if len(op.Args) != want {
		return fmt.Sprintf("op %q takes %d args, got %d", op.Kind, want, len(op.Args))
	}
	return ""
}

// Close stops accepting, waits for in-flight connections, drains the
// appliers (every acked write is already durable) and closes the store.
//
//wf:blocking waits for in-flight connections and loops to drain
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.ln.Close()
	if s.statsLn != nil {
		s.statsLn.Close()
	}
	s.connWG.Wait()
	s.stopAppliers()
	s.loopWG.Wait()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
