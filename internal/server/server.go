// Package server is the networked service tier: a TCP front end that
// multiplexes many client connections onto one waitfree sharded KV, with
// optional crash recovery through internal/logstore.
//
// Division of labour with the core: everything in this package is ordinary
// blocking Go — goroutines, channels, sockets, fsync — while in memory
// every shared datum behind it is the wait-free universal construction, and
// the boundary is the pid lease pool: a connection leases a process id for
// its lifetime and drives every operation through it. Its reader detaches
// the pid once a read has waited idleDetach for a frame, so an idle
// connection pins no shard's log GC, and the pid goes back to the pool on
// disconnect (without a Detach, every pid that ever went quiet pinned the
// low-water mark and the decided logs grew without bound). A durable
// server's connections lease no pid at all (below).
//
// Each connection is pipelined. A reader goroutine decodes a stream of
// frames (many per read syscall, through wire.Decoder) and writes the
// replies it completes itself — inline reads, in-memory writes, refusals —
// in one socket write each time the decoder runs dry. The committer writes
// a connection's replies from one drain itself, in one non-blocking socket
// write, when there are two or more and nobody else is writing; a writer
// goroutine per connection carries the rest (a lone reply, a failed
// persist and its hangup, a short write's tail) and coalesces them the
// same way. Requests carry ids and may complete out of order (a read
// answered inline overtakes an earlier write still waiting on its fsync);
// the client reassembles by id. Slot tokens (Config.Window) bound the
// requests routed to the committer and not yet written, which makes every
// committer-to-writer send non-blocking and the shutdown hand-off (reclaim
// every slot, then close the completion channel) race-free.
//
// Persistence (Config.Dir != "") follows persist-before-apply: writes are
// routed to one committer goroutine, which drains every shard's pending
// requests, assigns each shard's next dense sequence numbers, appends the
// whole drain to the log store as one frame (logstore.AppendBatch, one
// fsync), and only then applies it and acks each client. A durable write
// makes one channel hop, reader → committer, when the committer writes its
// ack, and a second, to the connection's writer, when it does not. An acked
// write is therefore on disk before any client observes it, and boot starts
// each shard from exactly those writes — durable linearizability. As every
// shard's one writer, the committer needs no construction to order writes:
// it applies each shard's run to a clone of the shard's published state in
// one seqspec.ApplyAll edit window (the construction's replay step without
// the log) and publishes the result before the acks. A published state is
// frozen: Clone only reads it, and nothing applies to it again. Boot
// publishes the recovered states; snapshots persist the published states.
// Reads never touch the store or the construction. A get is answered inline
// from its shard's published state unless this same connection has writes
// still in flight on that shard; then it is routed through the committer's
// FIFO behind them (read-your-writes in program order), and the committer
// answers it from the newest of the drain's writes to its key queued ahead
// of it, or from the shard's published state. Every len is routed: the
// committer answers it from every shard's published state plus the net
// change in keys of the drain's writes queued ahead of it. So a durable len
// reads every shard at one point of the committer's order, exact with
// respect to every write and every routed read. A concurrent inline get on
// another shard may still see one shard's drain writes before a later
// shard's are published, as the sharding contract allows.
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
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"waitfree/internal/core"
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
	Procs         int                              // in-memory mode: connection pid pool size and each shard's process count (default 64); a durable server's connections lease no pid
	Window        int                              // max requests routed to the committer and not yet flushed, per connection (default 256)
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

// kvSpec classifies the service's operation surface: ReadOnly detection is
// what routes gets and lens onto the inline fast path.
var kvSpec = seqspec.KV{}

// completion is one drain's replies to one connection that the committer
// did not write itself, on their way to the connection's writer: n frames
// in buf, a pooled buffer the writer returns, or none in buf when a short
// direct write left their tail in connState.left. The n replies hold n
// slot tokens, which the writer returns after its write. hangup marks a
// failed persist: buf holds error frames, after which the writer hangs up
// (the stream past them is not trustworthy).
type completion struct {
	buf    *[]byte
	n      int
	hangup bool
}

// connState is the per-connection plumbing shared by the reader goroutine,
// the writer goroutine and the committer a request may pass through.
type connState struct {
	c net.Conn
	// mu serialises every socket write: the reader's, the writer's and the
	// committer's. The committer only ever TryLocks it.
	mu sync.Mutex
	// left is the tail of a direct write the socket did not take (under
	// mu): every later write sends it first, so no frame is split by
	// another.
	left []byte
	out  *[]byte // replies the reader completed and has not flushed (reader-only)
	outN int     // frames in out
	// ch carries the committer's completions to the writer. Capacity
	// Window and the slot tokens below make every send non-blocking: a
	// routed request holds a slot from admission to the write that carries
	// its reply, and every completion carries at least one. queued counts
	// the completions sent and not yet written: the committer writes
	// directly only while it is 0, so its writes never overtake the
	// writer's.
	ch     chan completion
	queued atomic.Int32
	// slots is the window: the reader takes a token per routed request;
	// the committer returns one per reply it wrote itself, the writer one
	// per reply of each completion it wrote. Reclaiming all Window tokens
	// is the reader's proof that nothing references the connection or ch
	// any more.
	slots chan struct{}
	// outW[sh] counts this connection's writes to shard sh handed to the
	// committer and not yet published. The reader consults it to decide
	// whether a durable get may read its shard's settled state inline or
	// must queue behind the connection's own writes.
	outW []atomic.Int64
	// Committer-only: the replies of the current drain encoded so far
	// (ack, ackN frames), and the non-blocking write's descriptor, its
	// callback (bound once, so a write allocates nothing), argument and
	// result.
	ack   *[]byte
	ackN  int
	raw   syscall.RawConn // nil when c has no descriptor: every reply goes to the writer
	rawFn func(fd uintptr) bool
	rawB  []byte
	rawN  int
}

// directWrite is the committer's non-blocking socket write, called under
// w.mu: it returns how much of b the socket took, possibly less than all
// and possibly 0 (a full socket buffer, or a failed connection). A
// variable so tests can force short writes.
var directWrite = (*connState).tryWrite

// tryWrite writes b in one non-blocking write(2) through w's descriptor.
func (w *connState) tryWrite(b []byte) int {
	if w.raw == nil {
		return 0
	}
	w.rawB, w.rawN = b, 0
	w.raw.Write(w.rawFn) // an error (a closed connection) leaves rawN 0
	w.rawB = nil
	return w.rawN
}

// applyReq is one request handed to the committer: a write to persist and
// apply, or a read (read == true) queued behind a connection's earlier
// writes. sh is the op's shard, -1 for a len. The op's argument words
// travel by value in args (op.Args is nil in flight), because the reader
// decodes every request into one reused buffer; the committer points
// op.Args at args in its own drain, and keeps the result in v until the
// ack.
type applyReq struct {
	op   seqspec.Op
	args [3]int64
	argc uint8
	read bool
	sh   int
	id   uint64
	w    *connState
	v    int64
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

	commits     chan applyReq  // the committer's FIFO; nil when store == nil
	settled     []atomic.Value // durable mode: each shard's frozen state after the committer's last apply
	commitDrain *wfstats.Histogram
	boot        bootReport

	connsActive   atomic.Int64
	connsTotal    *wfstats.Counter
	opsServed     *wfstats.Counter
	opsRefused    *wfstats.Counter
	leaseMiss     *wfstats.Counter
	recsLogged    *wfstats.Counter
	snapsTaken    *wfstats.Counter
	writerFlushes *wfstats.Counter // coalesced socket writes, by the reader, the writer and the committer
	writerFrames  *wfstats.Counter // response frames carried by those writes
	acksDirect    *wfstats.Counter // replies the committer wrote itself

	closed atomic.Bool
	connWG sync.WaitGroup // connection readers and writers
	loopWG sync.WaitGroup // accept loop, stats server, committer
}

// bootReport is what recovery did in New, served at /recovery.
type bootReport struct {
	SnapshotsLoaded   int   `json:"snapshots_loaded"`
	SnapshotsRejected int64 `json:"snapshots_rejected"` // invalid snapshot files passed over
	RecordsReplayed   int   `json:"records_replayed"`
	RecordsSkipped    int64 `json:"records_skipped"` // covered records validated and passed over
	TornBytes         int64 `json:"torn_bytes"`
	Orphans           int64 `json:"orphans"`
	WallUs            int64 `json:"wall_us"`
}

// New recovers the log store if a directory is configured, builds the KV
// with each shard starting from its recovered state, binds the listeners
// and launches the committer. The server does not accept connections until
// Start.
//
//wf:blocking opens and recovers the store and seeds the pid pool channel
func New(cfg Config) (*Server, error) {
	cfg.fill()
	reg := wfstats.NewRegistry()
	var st *logstore.Store
	var boots []shardBoot
	settled := make([]atomic.Value, cfg.Shards) // published in durable mode only
	var boot bootReport
	if cfg.Dir != "" {
		start := time.Now()
		var err error
		if st, err = logstore.Open(cfg.Dir); err != nil {
			return nil, err
		}
		if boots, boot.SnapshotsLoaded, boot.RecordsReplayed, err = recoverShards(st, cfg.Shards); err != nil {
			st.Close()
			return nil, err
		}
		for sh, b := range boots {
			settled[sh].Store(b.state)
		}
		opened := st.Stats()
		boot.SnapshotsRejected, boot.RecordsSkipped = opened.SnapshotsRejected, opened.RecordsSkipped
		boot.TornBytes, boot.Orphans, boot.WallUs = opened.TornBytes, opened.Orphans, time.Since(start).Microseconds()
		cfg.Logf("server: recovered %s in %dµs: %d snapshots loaded, %d snapshots rejected, %d records replayed, %d records skipped, %d torn bytes truncated, %d orphans removed",
			cfg.Dir, boot.WallUs, boot.SnapshotsLoaded, boot.SnapshotsRejected, boot.RecordsReplayed, boot.RecordsSkipped, boot.TornBytes, boot.Orphans)
		reg.GaugeFunc("logstore.segments", func() int64 { return st.Stats().LogFiles })
		reg.GaugeFunc("logstore.fsyncs", func() int64 { return st.Stats().Fsyncs })
		reg.GaugeFunc("logstore.batches", func() int64 { return st.Stats().Batches })
		reg.GaugeFunc("logstore.torn_bytes", func() int64 { return boot.TornBytes })
	}
	// In-memory connections lease pids 0..Procs-1 from the pool. A durable
	// server's shards only route keys: they get one process, which never
	// invokes, and its pool stays empty.
	procs := cfg.Procs
	if st != nil {
		procs = 1
	}
	kv := shard.NewKV(cfg.Shards, procs,
		func() core.FetchAndCons { return core.NewSwapFAC() },
		shard.Defaults(core.WithMetrics(reg))...)
	kv.Instrument(reg)

	s := &Server{
		cfg:           cfg,
		kv:            kv,
		store:         st,
		settled:       settled,
		reg:           reg,
		boot:          boot,
		pool:          make(chan int, cfg.Procs),
		connsTotal:    reg.Counter("server.conns_total"),
		opsServed:     reg.Counter("server.ops"),
		opsRefused:    reg.Counter("server.ops_refused"),
		leaseMiss:     reg.Counter("server.lease_miss"),
		recsLogged:    reg.Counter("server.records_logged"),
		snapsTaken:    reg.Counter("server.snapshots"),
		writerFlushes: reg.Counter("server.writer_flushes"),
		writerFrames:  reg.Counter("server.writer_frames"),
		acksDirect:    reg.Counter("server.acks_direct"),
	}
	reg.GaugeFunc("server.conns_active", s.connsActive.Load)
	if st == nil {
		for pid := 0; pid < cfg.Procs; pid++ {
			s.pool <- pid
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	s.ln = ln
	if cfg.StatsAddr != "" {
		sln, err := net.Listen("tcp", cfg.StatsAddr)
		if err != nil {
			ln.Close()
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		s.statsLn = sln
	}
	if st != nil {
		// 256 queued requests per shard, so a reader rarely waits on the
		// send while the committer is in an fsync or a snapshot.
		s.commits = make(chan applyReq, 256*cfg.Shards)
		s.commitDrain = reg.Histogram("server.commit_drain")
		reg.GaugeFunc("server.commit_queue", func() int64 { return int64(len(s.commits)) })
		s.loopWG.Add(1)
		//wf:owns s.commits Close closes the commit channel once every reader has exited; the range drains and exits
		go s.runCommitter(boots)
	}
	return s, nil
}

// drainCap is the most requests one committer drain takes per shard; a
// drain takes at most drainCap × Shards, and so one shard's ApplyAll
// applies at most that many operations.
const drainCap = 64

// shardBoot is where one shard starts after recovery: its state, its next
// record's sequence number and its records logged since its snapshot.
type shardBoot struct {
	state     seqspec.State
	nextSeq   uint64
	sinceSnap int
}

// recoverShards reads the store into one KV state per shard without the
// universal construction (DESIGN.md §4), in one pass over the store: each
// shard's newest snapshot built into a trie at once, inside an edit window
// that owns the new nodes (seqspec.OpenKVWindow) and stays open across the
// whole replay, which applies each log record above the snapshot as Replay
// streams it, editing the snapshot's nodes in place. Every window is
// closed before the states are returned.
// Every key stored under shard sh must route to sh, because the committer
// snapshots each shard's own state, so a store written with another shard
// count is refused. It also counts the snapshots loaded and records replayed.
//
//wf:blocking reads the store's snapshots and segments
func recoverShards(st *logstore.Store, shards int) (boots []shardBoot, snapsLoaded, replayed int, err error) {
	boots = make([]shardBoot, shards)
	for sh := range boots {
		boots[sh].nextSeq = 1
	}
	snaps, err := st.Snapshots()
	if err != nil {
		return nil, 0, 0, err
	}
	pairs := make([]map[int64]int64, shards) // nil: the shard starts empty
	for _, snap := range snaps {
		sh := int(snap.Shard)
		if sh >= shards {
			return nil, 0, 0, fmt.Errorf("server: store has shard %d, server configured with %d shards", sh, shards)
		}
		for k := range snap.State {
			if err := checkRoute(sh, shards, k); err != nil {
				return nil, 0, 0, err
			}
		}
		pairs[sh] = snap.State
		boots[sh].nextSeq = snap.Seq + 1
	}
	wins := make([]seqspec.Window, shards)
	for sh := range wins {
		wins[sh] = seqspec.OpenKVWindow(pairs[sh])
		boots[sh].state = wins[sh].State()
	}
	err = st.Replay(func(rec logstore.Record) error {
		sh := int(rec.Shard)
		if sh >= shards {
			return fmt.Errorf("server: record for shard %d, server configured with %d shards", sh, shards)
		}
		if key, keyed := shard.KVRouter(rec.Op); keyed {
			if err := checkRoute(sh, shards, key); err != nil {
				return err
			}
		}
		wins[sh].Apply(rec.Op)
		boots[sh].nextSeq = rec.Seq + 1
		boots[sh].sinceSnap++
		replayed++
		return nil
	})
	for _, w := range wins {
		w.Close()
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return boots, len(snaps), replayed, nil
}

// checkRoute refuses a key stored under shard sh that routes elsewhere.
func checkRoute(sh, shards int, key int64) error {
	if to := shard.KeyShard(key, shards); to != sh {
		return fmt.Errorf("server: store shard %d holds key %d, which routes to shard %d of %d: the store was written with another shard count", sh, key, to, shards)
	}
	return nil
}

// runCommitter is every shard's single writer: it drains a batch of pending
// requests from all shards (one blocking receive, then a non-blocking
// sweep), assigns each shard's writes their dense seqs, persists the whole
// drain as one frame through AppendBatch, then answers its reads in arrival
// order and applies each shard's run of writes with one seqspec.ApplyAll on
// a clone of the shard's published state. No write is applied before the
// drain's last read: a routed get reads the newest write to its key in its
// shard's run ahead of it (pendingWrite), else the shard's published state;
// a len adds to every shard's published state the net change in keys of the
// writes ahead of it (presence from the run's newest earlier write to the
// key, else the published trie), counting each write once per drain. So each
// read sees the writes queued ahead of it and none behind, and a len reads
// every shard at one point of the committer's order. The committer publishes
// each shard's new state at once, before any ack, and never applies to it
// again: a reader that finds no write of its own in flight on a shard finds
// them all in the shard's published state. Only then are the replies
// encoded, one pooled buffer per connection, and sent: written by the
// committer itself when a connection has two or more and nobody else is
// writing to it, else handed to its writer. Building them strictly after
// AppendBatch returns is the durability contract — no client can observe a
// write that a crash could lose; wfvet's ackpersist analyzer checks that
// every marked ack below is dominated by the marked group commit. The
// committer never waits on a connection: it takes the connection's mutex
// only by TryLock, writes only what the socket takes without blocking, and
// the window's slot tokens make every completion send non-blocking. It
// returns a reply's slot token only after its last use of the connection.
//
// Every SnapshotEvery records of a shard it persists the shard's published
// state: as the shard's only writer, between drains that state holds
// exactly the records 1..seq-1.
//
//wf:blocking waits on the commit channel and the store's group commit
func (s *Server) runCommitter(boots []shardBoot) {
	defer s.loopWG.Done()
	seq := make([]uint64, len(boots)) // each shard's next record seq
	drained := make([]uint64, len(boots))
	sinceSnap := make([]int, len(boots))
	for sh, b := range boots {
		seq[sh], sinceSnap[sh] = b.nextSeq, b.sinceSnap
	}
	batch := make([]applyReq, 0, drainCap*len(boots))
	recs := make([]logstore.Record, 0, cap(batch))
	pending := make([][]int, len(boots)) // per shard: drain indices of unapplied writes
	counted := make([]int, len(boots))   // per shard: the pending writes a len has counted
	runOps := make([]seqspec.Op, 0, cap(batch))
	runOut := make([]int64, cap(batch))
	acked := make([]*connState, 0, cap(batch)) // the drain's connections, each with its replies in ack
	for req := range s.commits {
		batch = append(batch[:0], req)
	gather:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-s.commits:
				if !ok {
					break gather
				}
				batch = append(batch, more)
			default:
				break gather
			}
		}
		s.commitDrain.Observe(int64(len(batch)))
		// Each op's words stay in place in batch until the next drain:
		// AppendBatch encodes them and ApplyAll reads them before either
		// returns.
		recs = recs[:0]
		for i := range batch {
			it := &batch[i]
			if it.argc > 0 {
				it.op.Args = it.args[:it.argc:it.argc]
			}
			if !it.read {
				recs = append(recs, logstore.Record{Shard: uint32(it.sh), Seq: seq[it.sh] + drained[it.sh], Op: it.op})
				drained[it.sh]++
			}
		}
		//wf:persist the drain's single group commit: no completion below is built before AppendBatch returns
		err := s.store.AppendBatch(recs)
		var failure string // a failed persist applies nothing and fails every request of the drain
		if err != nil {
			failure = "persist: " + err.Error()
		} else {
			for sh, n := range drained {
				seq[sh] += n
			}
			s.recsLogged.Add(int64(len(recs)))
			var grown int64 // the net change in keys of the writes the drain's lens have counted
			for i := range batch {
				switch it := &batch[i]; {
				case !it.read:
					pending[it.sh] = append(pending[it.sh], i)
				case it.sh >= 0: // a get, behind its connection's writes to its shard
					switch w, ok := pendingWrite(batch, pending[it.sh], it.op.Arg(0)); {
					case !ok:
						it.v = s.settledState(it.sh).Apply(it.op)
					case w.Kind == "del":
						it.v = seqspec.Empty
					default:
						it.v = w.Arg(1)
					}
				default: // a len: every durable len is routed, behind its connection's writes
					for sh, run := range pending {
						st := s.settledState(sh)
						it.v += st.Apply(it.op)
						for k := counted[sh]; k < len(run); k++ {
							op := batch[run[k]].op
							w, ok := pendingWrite(batch, run[:k], op.Arg(0))
							had := ok && w.Kind == "put"
							if !ok {
								had = seqspec.KVHas(st, op.Arg(0))
							}
							if op.Kind == "put" && !had {
								grown++
							} else if op.Kind == "del" && had {
								grown--
							}
						}
						counted[sh] = len(run)
					}
					it.v += grown
				}
			}
			// One ApplyAll per shard on a clone of its published state,
			// keeping each result for the ack.
			for sh, run := range pending {
				if len(run) == 0 {
					continue
				}
				runOps = runOps[:0]
				for _, i := range run {
					runOps = append(runOps, batch[i].op)
				}
				st := s.settledState(sh).Clone()
				seqspec.ApplyAll(st, runOps, runOut[:len(run)])
				s.settled[sh].Store(st) //wf:ack durable before visible: inline gets read it once the acks below drop outW
				for k, i := range run {
					batch[i].v = runOut[k]
				}
				sinceSnap[sh] += len(run)
				pending[sh] = run[:0]
			}
			clear(counted)
		}
		clear(drained)
		for i := range batch {
			it, w := &batch[i], batch[i].w
			if !it.read {
				w.outW[it.sh].Add(-1)
			}
			if w.ack == nil {
				w.ack = wire.GetBuf()
				acked = append(acked, w)
			}
			if failure != "" {
				*w.ack = wire.AppendErrorFrame(*w.ack, it.id, failure)
			} else {
				*w.ack = wire.AppendResponseFrame(*w.ack, it.id, it.v)
			}
			w.ackN++
		}
		for _, w := range acked {
			buf, n := w.ack, w.ackN
			w.ack, w.ackN = nil, 0
			// A lone reply goes to the writer: at depth 1 the committer's
			// syscall would sit on every connection's round trip, where the
			// writer's runs beside the committer's next drain.
			if failure == "" && n >= 2 && w.queued.Load() == 0 && w.mu.TryLock() {
				sent := 0
				if len(w.left) == 0 { // else a failed write's tail is still pending
					sent = directWrite(w, *buf) //wf:ack durable before visible; a read after the writes queued ahead of it
				}
				done := sent == len(*buf)
				if !done {
					// The socket is full, or failing: the writer's blocking
					// write sends the tail first, or reports the failure.
					w.left = append(w.left, (*buf)[sent:]...)
					*buf = (*buf)[:0]
				}
				w.mu.Unlock()
				if done {
					s.writerFlushes.Inc()
					s.writerFrames.Add(int64(n))
					s.acksDirect.Add(int64(n))
					wire.PutBuf(buf)
					for ; n > 0; n-- { // the last use of w
						w.slots <- struct{}{}
					}
					continue
				}
			}
			w.queued.Add(1)
			w.ch <- completion{buf: buf, n: n, hangup: failure != ""} //wf:ack durable before visible; a read after the writes queued ahead of it
		}
		clear(acked)
		acked = acked[:0]
		for sh, n := range sinceSnap {
			if n < s.cfg.SnapshotEvery {
				continue
			}
			sinceSnap[sh] = 0
			snap := logstore.Snapshot{Shard: uint32(sh), Seq: seq[sh] - 1, State: seqspec.KVPairs(s.settledState(sh))}
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

// Start begins accepting connections (and serving stats and profiles, if
// configured).
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
		mux.HandleFunc("/recovery", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(s.boot)
		})
		// Profiles on this mux only (the server never serves DefaultServeMux).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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

// KV exposes the underlying sharded object for white-box tests. In durable
// mode it only routes keys (ShardOf): its shards stay empty, because the
// committer applies to the published states instead.
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
		//wf:owns c closing the connection (the client, a failed write, or the hangup after a malformed frame or failed persist) ends the Decoder's read
		go s.serveConn(c)
	}
}

// errNoFreePid is the reason sent (with request id 0) when an in-memory
// server's pid pool is exhausted; the connection is then closed.
const errNoFreePid = "no free pid: connection pool exhausted"

// serveConn runs a connection's lifetime: lease a pid in memory (a durable
// connection reads the committer's published states and leases none),
// start the writer, run the read loop (which flushes the reader's own
// replies on exit), then hand the window back. The shutdown edge is the
// slot reclaim: once the reader re-acquires all Window slot tokens, every
// request it routed has been written, by the committer or the writer (or
// dropped after a failed write) — the committer holds no reference to the
// connection any more — so closing the completion channel is safe and the
// writer's range drains out.
//
//wf:blocking socket reads and writes, pid-pool handoff and the window reclaim
func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer c.Close()
	s.connsTotal.Inc()

	s.connsActive.Add(1)
	defer s.connsActive.Add(-1) // after the Detach below
	pid := -1
	if s.store == nil {
		select {
		case pid = <-s.pool:
		default:
			s.leaseMiss.Inc()
			wire.WriteFrame(c, wire.AppendError(nil, 0, errNoFreePid))
			return
		}
		defer func() {
			// The departed-client fix: swing this pid's observed-prefix
			// register out of every shard's min-scan before the pid goes
			// back in the pool, so an idle pool slot cannot pin log GC.
			s.kv.Detach(pid)
			s.pool <- pid
		}()
	}

	w := &connState{
		c:     c,
		out:   wire.GetBuf(),
		ch:    make(chan completion, s.cfg.Window),
		slots: make(chan struct{}, s.cfg.Window),
		outW:  make([]atomic.Int64, s.cfg.Shards),
	}
	if sc, ok := c.(syscall.Conn); ok {
		w.raw, _ = sc.SyscallConn()
	}
	w.rawFn = w.rawWrite
	defer wire.PutBuf(w.out)
	for i := 0; i < s.cfg.Window; i++ {
		w.slots <- struct{}{}
	}
	s.connWG.Add(1)
	//wf:owns w.ch the reader reclaims every window slot (so nothing is in flight) and closes the completion channel; the writer's range drains and exits
	go s.connWriter(w)

	bad := s.readLoop(pid, w)

	for i := 0; i < s.cfg.Window; i++ {
		<-w.slots
	}
	if bad != nil { // every earlier reply is out: the error frame goes last
		s.write(w, bad, 1, true)
	}
	close(w.ch)
}

// readLoop is a connection's reader half. Refusals, in-memory operations
// and inline reads complete right here, into w.out, which it flushes when
// the decoder runs dry, when it reaches maxCoalesce, before any step that
// blocks, and on exit; durable writes and routed reads go to the committer
// and complete through the writer. pid is the leased pid in memory and -1
// in durable mode. A malformed request ends the loop, which returns its
// error frame for serveConn to send last.
//
//wf:blocking socket reads and writes, window acquisition and the committer hand-off
func (s *Server) readLoop(pid int, w *connState) (bad []byte) {
	defer s.flush(w)
	dec := wire.NewDecoder(w.c)
	// Every request decodes its arguments into args: an in-memory write or
	// an inline read is done with them when Invoke returns (the log entry
	// keeps its own copy), and a routed request copies them into its
	// applyReq.
	var args [3]int64
	// In memory, armed means a read deadline idleDetach after the first dry
	// decoder is set, or has fired and pid is detached until the next frame.
	armed, detached := false, false
	for {
		if dec.Buffered() == 0 {
			if !s.flush(w) {
				return nil // a failed write closed the connection
			}
			if pid >= 0 && !armed {
				w.c.SetReadDeadline(time.Now().Add(idleDetach))
				armed = true
			}
		}
		payload, err := dec.Next()
		if pid >= 0 && errors.Is(err, os.ErrDeadlineExceeded) {
			// Between this pid's operations: detach it, so a quiet
			// connection pins no shard's log GC, and wait for the next
			// frame with no deadline. The next Invoke re-attaches through
			// gcAttach's gate check.
			s.kv.Detach(pid)
			w.c.SetReadDeadline(time.Time{})
			detached = true
			continue
		}
		if err != nil {
			return nil // clean EOF, torn frame or oversize — all end the conn
		}
		if detached {
			armed, detached = false, false
		}
		id, op, err := wire.DecodeRequestInto(payload, args[:0])
		if err != nil {
			// The stream is untrustworthy past here: answer, hang up.
			s.opsRefused.Inc()
			return wire.AppendErrorFrame(nil, id, "malformed request: "+err.Error())
		}
		//wf:persist a durable write group-commits in runCommitter before its completion is built; reads, refusals and in-memory operations have nothing to persist
		if reason := validateOp(op); reason != "" {
			// A well-framed but unsupported op is the client's bug, not
			// a protocol failure; refuse it and keep the connection.
			// (KVRouter panics on unknown kinds — a hostile peer must
			// not reach it.)
			s.opsRefused.Inc()
			*w.out = wire.AppendErrorFrame(*w.out, id, reason)
		} else if s.opsServed.Inc(); kvSpec.ReadOnly(op) {
			v, inline := s.serveRead(pid, w, id, op)
			if !inline {
				continue
			}
			*w.out = wire.AppendResponseFrame(*w.out, id, v)
		} else if s.store != nil {
			sh := s.kv.ShardOf(op.Arg(0))
			w.outW[sh].Add(1)
			s.route(w, sh, op, id, false)
			continue
		} else {
			*w.out = wire.AppendResponseFrame(*w.out, id, s.kv.Invoke(pid, op)) //wf:ack in-memory mode: applied and client-visible with nothing to persist
		}
		if w.outN++; len(*w.out) >= maxCoalesce && !s.flush(w) {
			return nil
		}
	}
}

// serveRead answers a read-only operation and reports whether it did so
// inline; nothing is persisted on any path. In memory, pid's wait-free
// read fast path answers it. In durable mode a get whose shard holds none
// of this connection's writes in flight reads that shard's settled state,
// which the committer publishes before it acks a write: the get
// linearizes at that load. A get behind the connection's own writes, and
// every len, is routed through the committer's FIFO, so a len always reads
// every shard at one point of the committer's order.
//
//wf:blocking a routed read queues behind the committer's FIFO
func (s *Server) serveRead(pid int, w *connState, id uint64, op seqspec.Op) (int64, bool) {
	if s.store == nil {
		return s.kv.Invoke(pid, op), true
	}
	sh := -1 // a len reads every shard
	if op.Kind == "get" {
		if sh = s.kv.ShardOf(op.Arg(0)); w.outW[sh].Load() == 0 {
			return s.settledState(sh).Apply(op), true
		}
	}
	s.route(w, sh, op, id, true)
	return 0, false
}

// settledState is shard sh's state as the committer last published it:
// frozen, so readers may apply read-only ops to it concurrently.
func (s *Server) settledState(sh int) seqspec.State { return s.settled[sh].Load().(seqspec.State) }

// route admits op, on shard sh (-1 for a len), to the window and hands it
// to the committer, its argument words copied by value out of the reader's
// decode buffer. A step that would block flushes the reader's replies
// first, so none of them waits behind another request's fsync.
//
//wf:blocking window acquisition and the commit channel send
func (s *Server) route(w *connState, sh int, op seqspec.Op, id uint64, read bool) {
	r := applyReq{op: seqspec.Op{Kind: op.Kind}, read: read, sh: sh, id: id, w: w}
	r.argc = uint8(copy(r.args[:], op.Args))
	select {
	case <-w.slots:
	default:
		s.flush(w)
		<-w.slots
	}
	select {
	case s.commits <- r:
	default:
		s.flush(w)
		s.commits <- r
	}
}

// idleDetach is how long an in-memory connection's reader may go without a
// frame before it detaches its pid from log GC. A busy connection pays one
// deadline, one timeout and one detach per interval, not one per read.
const idleDetach = 10 * time.Millisecond

// maxCoalesce bounds the bytes one coalesced socket write carries.
const maxCoalesce = 64 << 10

// flush writes the reader's pending replies in one socket write; false
// means the connection is gone.
//
//wf:blocking the socket write
func (s *Server) flush(w *connState) bool {
	if w.outN == 0 {
		return true
	}
	err := s.write(w, *w.out, w.outN, false)
	*w.out, w.outN = (*w.out)[:0], 0
	return err == nil
}

// write is the blocking socket write the reader and the writer share: n
// frames in b, under the connection's mutex, after the tail a short direct
// write left. A failed write, or a hangup, closes the connection before
// the mutex is released, so nothing follows it.
//
//wf:blocking the connection mutex and the socket write: the kernel can stall on a slow peer's window
func (s *Server) write(w *connState, b []byte, n int, hangup bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if len(w.left) > 0 {
		_, err = w.c.Write(w.left)
		w.left = w.left[:0]
	}
	if err == nil && len(b) > 0 {
		_, err = w.c.Write(b)
	}
	if err == nil {
		s.writerFlushes.Inc()
		s.writerFrames.Add(int64(n))
	}
	if err != nil || hangup {
		w.c.Close()
	}
	return err
}

// connWriter is a connection's writer half: it waits for a committer
// completion, appends every other one already ready (up to maxCoalesce
// bytes) to its buffer and writes them in one syscall. Slot tokens go back
// only after that write: that lets the reader route the next request, and
// at shutdown proves the window quiet. A failed connection keeps draining
// and releasing, so shutdown never deadlocks.
//
//wf:blocking waits on the completion channel and the socket write
func (s *Server) connWriter(w *connState) {
	defer s.connWG.Done()
	failed := false
	for c := range w.ch {
		buf, n, hangup, msgs := c.buf, c.n, c.hangup, int32(1)
		// The writer is ch's only receiver, so a non-empty ch never blocks.
		for ; len(*buf) < maxCoalesce && len(w.ch) > 0; msgs++ {
			c = <-w.ch
			*buf = append(*buf, *c.buf...)
			wire.PutBuf(c.buf)
			n, hangup = n+c.n, hangup || c.hangup
		}
		if !failed {
			failed = s.write(w, *buf, n, hangup) != nil || hangup
		}
		wire.PutBuf(buf)
		w.queued.Add(-msgs)
		for ; n > 0; n-- {
			w.slots <- struct{}{}
		}
	}
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

// pendingWrite returns the newest write to key in a shard's pending run
// (drain indices into batch, oldest first); false when none writes key.
func pendingWrite(batch []applyReq, run []int, key int64) (seqspec.Op, bool) {
	for k := len(run) - 1; k >= 0; k-- {
		if op := batch[run[k]].op; op.Arg(0) == key {
			return op, true
		}
	}
	return seqspec.Op{}, false
}

// Close stops accepting, waits for in-flight connections, drains the
// committer (every acked write is already durable) and closes the store.
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
	if s.commits != nil {
		close(s.commits)
	}
	s.loopWG.Wait()
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}
