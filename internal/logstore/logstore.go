// Package logstore is the service tier's crash-recoverable backing store:
// decided-log entries and state snapshots persisted through write-once
// files in an atomic-rename CAS directory, replayed on boot to reconstruct
// the sharded KV.
//
// # Write-once CAS directory
//
// Every durable object is one immutable file whose content is written to a
// temp file, fsynced, and atomically renamed into its final name; the
// directory is fsynced after each rename so the name itself is durable.
// A reader therefore never observes a half-written object under a final
// name: a crash leaves at worst a tmp-* orphan (removed on Open) — this is
// the qscod casdir write-once discipline, applied to a log instead of
// per-round consensus state. There is no in-place mutation and no WAL to
// repair; recovery is "list the directory, ignore orphans, replay".
//
//   - log-<idx>: one committed append group — a batch of Records, CRC-
//     sealed. Indices are dense in commit order; Compact may later erase a
//     prefix, leaving a gap that Replay skips naturally.
//   - snap-<shard>-<seq>: shard's state with every record seq'd <= seq
//     applied. A newer snapshot supersedes an older; Compact erases
//     superseded snapshots and any log file fully covered by snapshots.
//   - tmp-*: in-flight writes; never promised durable, removed on Open.
//
// # Group commit
//
// AppendBatch blocks until its records are durable (file + directory fsync).
// One flusher goroutine drains concurrently queued appends into a single
// log file with a single fsync pair, so the fsync cost amortizes across
// however many appliers are committing at once — the classic group-commit
// trade: under load, latency per append approaches one fsync / group size.
//
// # Durability contract
//
// The server persists before it applies or acks (see internal/server), so
// the store's guarantee composes to durable linearizability: an
// acknowledged operation is in a durable log file (or covered by a durable
// snapshot) and survives kill -9; an unacknowledged operation may or may
// not survive, which is the standard ambiguity of any storage interface.
// The first write that fails poisons the store: every later AppendBatch and
// WriteSnapshot returns that error until the directory is reopened, so no
// batch is ever acknowledged on top of a hole.
//
// Wait-freedom claims stop at the wait-free core this store feeds: the
// public methods carry function-level //wf:blocking (fsync, rename and
// channel handoff are the point), the write-once commit path is audited by
// wfvet's fsyncorder analyzer (//wf:durable on writeOnce), and the flusher
// goroutine's shutdown edge is declared with //wf:owns.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// Record is one decided operation bound for shard's log: Seq is the
// shard-local persistence sequence number assigned by the shard's single
// applier (dense from 1), Op the decided operation.
type Record struct {
	Shard uint32
	Seq   uint64
	Op    seqspec.Op
}

// Snapshot is one shard's materialized state: State reflects every record
// of the shard with seq <= Seq. KV states are int64->int64 maps.
type Snapshot struct {
	Shard uint32
	Seq   uint64
	State map[int64]int64
}

var (
	logMagic  = [4]byte{'W', 'F', 'L', '1'}
	snapMagic = [4]byte{'W', 'F', 'S', '1'}
)

// ErrClosed is returned by AppendBatch after Close.
var ErrClosed = errors.New("logstore: store is closed")

// ErrCorrupt wraps integrity failures in committed log files. A torn or
// bit-rotten *log* file is fatal — it held acknowledged operations — while
// an invalid snapshot file is skipped (recovery just replays more records).
var ErrCorrupt = errors.New("logstore: corrupt log file")

// Stats is a point-in-time counter snapshot of the store's activity.
type Stats struct {
	Batches   int64 // committed append groups (log files written)
	Records   int64 // records committed
	Snapshots int64 // snapshot files written
	Compacted int64 // files erased by Compact
	LogFiles  int64 // live log files
	Fsyncs    int64 // fsync syscalls issued (file + directory syncs)
}

type appendReq struct {
	recs []Record
	err  chan error
}

// Store is an open CAS directory. All methods are safe for concurrent use.
type Store struct {
	dir  string
	dirf *os.File

	mu      sync.Mutex
	nextIdx uint64
	// logs holds the live log file indices in ascending order; shardMax
	// maps a log index to its per-shard newest record seq (known for files
	// written or replayed by this process — Compact skips unknown files).
	logs     []uint64
	shardMax map[uint64]map[uint32]uint64
	// snaps is the newest durable snapshot file per shard (by seq);
	// snapFiles lists every snap file still on disk for compaction.
	// validated caches the newest snapshot per shard that actually decodes
	// (filled lazily): Replay's covered-prefix skip and Snapshots' states
	// must come from the same set, or a corrupt snapshot would silently
	// swallow the log records it claimed to cover.
	snaps     map[uint32]snapRef
	snapFiles []snapRef
	validated map[uint32]Snapshot
	// failed is the first error a log or snapshot write returned. It is
	// sticky: after a failed fsync the kernel may have dropped the dirty
	// pages and a retry can report success over a hole, so the store stops
	// writing and every later AppendBatch/WriteSnapshot returns this error
	// until the directory is reopened.
	failed error

	reqs        chan appendReq
	quit        chan struct{}
	flusherDone chan struct{}
	closed      atomic.Bool

	n storeCounters
}

// storeCounters keeps the monitoring counters in their own struct so their
// atomic traffic is plainly what it is — monitoring, not a publication of
// the mutex-guarded index fields above.
type storeCounters struct {
	batches   atomic.Int64
	records   atomic.Int64
	snapCount atomic.Int64
	compacted atomic.Int64
	// fsyncs counts every fsync the store issues (file and directory), the
	// denominator-free half of the service tier's fsyncs/op bench metric:
	// group commit amortizes one fsync pair over a whole drained batch, and
	// this counter is how a bench proves it.
	fsyncs atomic.Int64
}

type snapRef struct {
	shard uint32
	seq   uint64
	name  string
}

// Open opens (creating if needed) the CAS directory at dir: removes tmp-*
// orphans from a previous crash, indexes the committed log and snapshot
// files, and starts the group-commit flusher.
//
//wf:blocking opens and fsyncs files; launches the blocking flusher
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:         dir,
		dirf:        dirf,
		nextIdx:     1,
		shardMax:    make(map[uint64]map[uint32]uint64),
		snaps:       make(map[uint32]snapRef),
		reqs:        make(chan appendReq, 256),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	names, err := dirf.Readdirnames(-1)
	if err != nil {
		dirf.Close()
		return nil, err
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "tmp-"):
			// A write that never reached its rename: never durable, never
			// promised. Removing it is the crash recovery for torn writes.
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "log-"):
			idx, err := strconv.ParseUint(name[len("log-"):], 10, 64)
			if err != nil {
				continue
			}
			s.logs = append(s.logs, idx)
			if idx >= s.nextIdx {
				s.nextIdx = idx + 1
			}
		case strings.HasPrefix(name, "snap-"):
			shardSeq := strings.SplitN(name[len("snap-"):], "-", 2)
			if len(shardSeq) != 2 {
				continue
			}
			shard64, err1 := strconv.ParseUint(shardSeq[0], 10, 32)
			seq, err2 := strconv.ParseUint(shardSeq[1], 10, 64)
			if err1 != nil || err2 != nil {
				continue
			}
			ref := snapRef{shard: uint32(shard64), seq: seq, name: name}
			s.snapFiles = append(s.snapFiles, ref)
			if cur, ok := s.snaps[ref.shard]; !ok || seq > cur.seq {
				s.snaps[ref.shard] = ref
			}
		}
	}
	sort.Slice(s.logs, func(i, j int) bool { return s.logs[i] < s.logs[j] })
	s.n.batches.Store(int64(len(s.logs)))
	//wf:owns s.quit Close closes quit; the flusher drains and exits
	go s.flusher()
	return s, nil
}

// Dir returns the store's directory path.
func (s *Store) Dir() string { return s.dir }

// AppendBatch durably commits recs as one batch: it returns only after the
// records are in a CRC-sealed log file whose name is fsynced into the
// directory. This is the batch-drained applier's entry point — a shard
// applier drains its queue and commits the whole drain here, paying one
// fsync pair for N records; concurrent batches from other appliers may be
// committed together in one file (group commit), each still getting its
// own error. Records of one batch stay contiguous and in order, and an
// empty batch returns nil without touching the flusher.
//
//wf:blocking blocks until the group commit's fsync pair completes
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	req := appendReq{recs: recs, err: make(chan error, 1)}
	select {
	case s.reqs <- req:
	case <-s.quit:
		return ErrClosed
	}
	select {
	case err := <-req.err:
		return err
	case <-s.flusherDone:
		// The flusher exited between our enqueue and its drain; the ack
		// channel is buffered, so a commit that did see us is not lost.
		select {
		case err := <-req.err:
			return err
		default:
			return ErrClosed
		}
	}
}

// flusher is the group-commit loop: take everything queued, seal it into
// one log file, ack every contributor, repeat.
//
//wf:blocking the group-commit loop: waits on the request channel for work
func (s *Store) flusher() {
	defer close(s.flusherDone)
	for {
		var group []appendReq
		select {
		case req := <-s.reqs:
			group = append(group, req)
		case <-s.quit:
			// Graceful drain: commit what was enqueued before Close.
			for {
				select {
				case req := <-s.reqs:
					group = append(group, req)
				default:
					if len(group) > 0 {
						s.commitGroup(group)
					}
					return
				}
			}
		}
	gather:
		for len(group) < 64 {
			select {
			case req := <-s.reqs:
				group = append(group, req)
			default:
				break gather
			}
		}
		s.commitGroup(group)
	}
}

// commitGroup seals one group into the next log file and acks every req.
//
//wf:blocking serializes index updates under the store mutex around the fsync pair
func (s *Store) commitGroup(group []appendReq) {
	s.mu.Lock()
	idx := s.nextIdx
	s.nextIdx++
	err := s.failed
	s.mu.Unlock()

	var recs []Record
	for _, req := range group {
		recs = append(recs, req.recs...)
	}
	if err == nil {
		if err = s.writeLogFile(idx, recs); err != nil {
			err = s.fail(err)
		}
	}
	if err == nil {
		max := make(map[uint32]uint64)
		for _, r := range recs {
			if r.Seq > max[r.Shard] {
				max[r.Shard] = r.Seq
			}
		}
		s.mu.Lock()
		s.logs = append(s.logs, idx)
		s.shardMax[idx] = max
		s.mu.Unlock()
		s.n.batches.Add(1)
		s.n.records.Add(int64(len(recs)))
	}
	for _, req := range group {
		req.err <- err
	}
}

// fail makes err the store's sticky failure unless an earlier write already
// failed, and returns the failure that stuck.
//
//wf:blocking takes the store mutex to record the failure
func (s *Store) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil {
		s.failed = err
	}
	return s.failed
}

// writeLogFile writes one sealed log file through the write-once
// discipline: temp file, fsync, rename, directory fsync.
func (s *Store) writeLogFile(idx uint64, recs []Record) error {
	buf := logMagic[:4:4]
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		rec := binary.BigEndian.AppendUint32(nil, r.Shard)
		rec = binary.BigEndian.AppendUint64(rec, r.Seq)
		rec = wire.AppendOp(rec, r.Op)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec)))
		buf = append(buf, rec...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	return s.writeOnce(fmt.Sprintf("log-%016d", idx), buf)
}

// writeOnce atomically publishes content under name: temp file, file
// fsync, rename, directory fsync — the ordering fsyncorder verifies.
//
//wf:durable
func (s *Store) writeOnce(name string, content []byte) error {
	f, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(content); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	s.n.fsyncs.Add(1)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	s.n.fsyncs.Add(1)
	return s.dirf.Sync()
}

// Snapshots returns the newest durable snapshot per shard, decoded and
// integrity-checked. An invalid snapshot file is skipped — the store falls
// back to older snapshots or pure log replay — because a snapshot is an
// optimization, not the record of truth. Replay uses this same validated
// set for its covered-prefix skip, so a snapshot that fails its checksum
// costs extra replay work, never data.
//
//wf:blocking reads snapshot files under the store mutex
func (s *Store) Snapshots() (map[uint32]Snapshot, error) {
	s.mu.Lock()
	if s.validated != nil {
		out := make(map[uint32]Snapshot, len(s.validated))
		for shard, snap := range s.validated {
			out[shard] = snap
		}
		s.mu.Unlock()
		return out, nil
	}
	refs := make([]snapRef, 0, len(s.snaps))
	for _, ref := range s.snaps {
		refs = append(refs, ref)
	}
	all := append([]snapRef(nil), s.snapFiles...)
	s.mu.Unlock()

	out := make(map[uint32]Snapshot, len(refs))
	for _, ref := range refs {
		snap, err := s.readSnapshot(ref)
		if err == nil {
			out[ref.shard] = snap
			continue
		}
		// Fall back to the newest older snapshot of the shard that decodes.
		var older []snapRef
		for _, o := range all {
			if o.shard == ref.shard && o.seq < ref.seq {
				older = append(older, o)
			}
		}
		sort.Slice(older, func(i, j int) bool { return older[i].seq > older[j].seq })
		for _, o := range older {
			if snap, err := s.readSnapshot(o); err == nil {
				out[ref.shard] = snap
				break
			}
		}
	}
	s.mu.Lock()
	if s.validated == nil {
		s.validated = make(map[uint32]Snapshot, len(out))
		for shard, snap := range out {
			s.validated[shard] = snap
		}
	}
	s.mu.Unlock()
	return out, nil
}

func (s *Store) readSnapshot(ref snapRef) (Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, ref.name))
	if err != nil {
		return Snapshot{}, err
	}
	if len(b) < 24 || [4]byte(b[:4]) != snapMagic {
		return Snapshot{}, fmt.Errorf("logstore: snapshot %s: bad magic", ref.name)
	}
	crc := binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[4:len(b)-4]) != crc {
		return Snapshot{}, fmt.Errorf("logstore: snapshot %s: bad checksum", ref.name)
	}
	shard := binary.BigEndian.Uint32(b[4:8])
	seq := binary.BigEndian.Uint64(b[8:16])
	count := binary.BigEndian.Uint32(b[16:20])
	body := b[20 : len(b)-4]
	state := make(map[int64]int64, count)
	for i := uint32(0); i < count; i++ {
		k, n := binary.Varint(body)
		if n <= 0 {
			return Snapshot{}, fmt.Errorf("logstore: snapshot %s: truncated", ref.name)
		}
		body = body[n:]
		v, n := binary.Varint(body)
		if n <= 0 {
			return Snapshot{}, fmt.Errorf("logstore: snapshot %s: truncated", ref.name)
		}
		body = body[n:]
		state[k] = v
	}
	return Snapshot{Shard: shard, Seq: seq, State: state}, nil
}

// WriteSnapshot durably publishes snap. After it returns, Compact may
// erase every log record of the shard with seq <= snap.Seq.
//
//wf:blocking fsyncs the snapshot file and updates the index under the store mutex
func (s *Store) WriteSnapshot(snap Snapshot) error {
	s.mu.Lock()
	err := s.failed
	s.mu.Unlock()
	if err != nil {
		return err
	}
	buf := snapMagic[:4:4]
	buf = binary.BigEndian.AppendUint32(buf, snap.Shard)
	buf = binary.BigEndian.AppendUint64(buf, snap.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snap.State)))
	keys := make([]int64, 0, len(snap.State))
	for k := range snap.State {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		buf = binary.AppendVarint(buf, k)
		buf = binary.AppendVarint(buf, snap.State[k])
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	name := fmt.Sprintf("snap-%010d-%016d", snap.Shard, snap.Seq)
	if err := s.writeOnce(name, buf); err != nil {
		return s.fail(err)
	}
	ref := snapRef{shard: snap.Shard, seq: snap.Seq, name: name}
	s.mu.Lock()
	s.snapFiles = append(s.snapFiles, ref)
	if cur, ok := s.snaps[snap.Shard]; !ok || snap.Seq > cur.seq {
		s.snaps[snap.Shard] = ref
	}
	// A snapshot we just wrote and fsynced is valid by construction. Copy
	// the state: the caller (a live applier) keeps mutating its map.
	if s.validated != nil {
		if cur, ok := s.validated[snap.Shard]; !ok || snap.Seq > cur.Seq {
			cp := Snapshot{Shard: snap.Shard, Seq: snap.Seq, State: make(map[int64]int64, len(snap.State))}
			for k, v := range snap.State {
				cp.State[k] = v
			}
			s.validated[snap.Shard] = cp
		}
	}
	s.mu.Unlock()
	s.n.snapCount.Add(1)
	return nil
}

// Replay streams every committed record not covered by the newest durable
// snapshots, in commit order, to fn. Load the states from Snapshots()
// first; together they reconstruct exactly the durable history. Replay
// validates every log file's seal and fails with ErrCorrupt on a bad one —
// committed files held acknowledged writes, so silence would be data loss.
// Safe to call more than once (it re-reads the directory state each time);
// the records delivered are identical, so replay is idempotent as long as
// fn applies them to a fresh state.
//
//wf:blocking reads and validates every live log file
func (s *Store) Replay(fn func(Record) error) error {
	// The covered prefix comes from the *validated* snapshot set (same as
	// Snapshots), never from file names alone: skipping records behind a
	// snapshot that doesn't decode would lose acknowledged writes.
	valid, err := s.Snapshots()
	if err != nil {
		return err
	}
	covered := make(map[uint32]uint64, len(valid))
	for shard, snap := range valid {
		covered[shard] = snap.Seq
	}
	s.mu.Lock()
	logs := append([]uint64(nil), s.logs...)
	s.mu.Unlock()
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })

	for _, idx := range logs {
		recs, err := s.readLogFile(idx)
		if err != nil {
			return err
		}
		max := make(map[uint32]uint64)
		for _, r := range recs {
			if r.Seq > max[r.Shard] {
				max[r.Shard] = r.Seq
			}
			if r.Seq <= covered[r.Shard] {
				continue // the snapshot already reflects it
			}
			if err := fn(r); err != nil {
				return err
			}
		}
		s.mu.Lock()
		s.shardMax[idx] = max
		s.mu.Unlock()
	}
	return nil
}

func (s *Store) readLogFile(idx uint64) ([]Record, error) {
	name := fmt.Sprintf("log-%016d", idx)
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	if len(b) < 12 || [4]byte(b[:4]) != logMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
	}
	crc := binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(b[4:len(b)-4]) != crc {
		return nil, fmt.Errorf("%w: %s: bad checksum", ErrCorrupt, name)
	}
	count := binary.BigEndian.Uint32(b[4:8])
	body := b[8 : len(b)-4]
	recs := make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: %s: truncated record header", ErrCorrupt, name)
		}
		n := binary.BigEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < n || n < 12 {
			return nil, fmt.Errorf("%w: %s: truncated record", ErrCorrupt, name)
		}
		rec := body[:n]
		body = body[n:]
		op, rest, err := wire.DecodeOp(rec[12:])
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("%w: %s: bad op encoding", ErrCorrupt, name)
		}
		recs = append(recs, Record{
			Shard: binary.BigEndian.Uint32(rec[0:4]),
			Seq:   binary.BigEndian.Uint64(rec[4:12]),
			Op:    op,
		})
	}
	return recs, nil
}

// Compact erases files made redundant by newer snapshots: log files whose
// every record is covered by the current *validated* per-shard snapshots
// (same set Replay skips by — erasing behind an unverified snapshot would
// lose acked data), and snapshot files superseded by a newer valid one for
// the same shard. Only log files whose contents this process has seen
// (written or replayed) are considered — an unknown file is left alone.
// Returns the number of files erased. Safe to crash at any point: erasure
// is idempotent and recovery never needs an erased file.
//
//wf:blocking erases files and fsyncs the directory under the store mutex
func (s *Store) Compact() (int, error) {
	valid, err := s.Snapshots()
	if err != nil {
		return 0, err
	}
	covered := make(map[uint32]uint64, len(valid))
	validSeq := make(map[uint32]uint64, len(valid))
	for shard, snap := range valid {
		covered[shard] = snap.Seq
		validSeq[shard] = snap.Seq
	}
	s.mu.Lock()
	var victims []string
	var keepLogs []uint64
	for _, idx := range s.logs {
		max, known := s.shardMax[idx]
		dead := known
		for shard, seq := range max {
			if seq > covered[shard] {
				dead = false
				break
			}
		}
		if dead {
			victims = append(victims, fmt.Sprintf("log-%016d", idx))
			delete(s.shardMax, idx)
		} else {
			keepLogs = append(keepLogs, idx)
		}
	}
	s.logs = keepLogs
	var keepSnaps []snapRef
	for _, ref := range s.snapFiles {
		if seq, ok := validSeq[ref.shard]; ok && ref.seq < seq {
			victims = append(victims, ref.name)
		} else {
			keepSnaps = append(keepSnaps, ref)
		}
	}
	s.snapFiles = keepSnaps
	s.mu.Unlock()

	for _, name := range victims {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	if len(victims) > 0 {
		s.n.fsyncs.Add(1)
		if err := s.dirf.Sync(); err != nil {
			return 0, err
		}
		s.n.compacted.Add(int64(len(victims)))
	}
	return len(victims), nil
}

// Stats returns a point-in-time activity snapshot.
//
//wf:blocking takes the store mutex to read the live file count
func (s *Store) Stats() Stats {
	s.mu.Lock()
	live := int64(len(s.logs))
	s.mu.Unlock()
	return Stats{
		Batches:   s.n.batches.Load(),
		Records:   s.n.records.Load(),
		Snapshots: s.n.snapCount.Load(),
		Compacted: s.n.compacted.Load(),
		LogFiles:  live,
		Fsyncs:    s.n.fsyncs.Load(),
	}
}

// Close drains queued appends, stops the flusher and releases the
// directory handle. Appends issued after Close return ErrClosed.
//
//wf:blocking waits for the flusher's graceful drain
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.quit)
	<-s.flusherDone
	return s.dirf.Close()
}
