// Package logstore is the service tier's crash-recoverable backing store:
// the decided log persisted as append-only, checksummed segment files, and
// state snapshots published as write-once files, replayed on boot to
// reconstruct the sharded KV.
//
// # Files
//
//   - log-<idx>: a segment — the magic WFL2, then one frame per group commit,
//     appended in commit order. A frame is u32 len | u32 count | records |
//     u32 crc32: len is the byte length of the records, each record is
//     u32 shard | u64 seq | op (wire.AppendOp), and the CRC covers len,
//     count and the records. Indices are dense in creation order; Compact
//     erases sealed segments the snapshots cover, leaving a gap that Replay
//     skips naturally.
//   - snap-<shard>-<seq>: shard's state with every record seq'd <= seq
//     applied. A newer snapshot supersedes an older; Compact erases
//     superseded snapshots.
//   - tmp-*: in-flight write-once publications; never promised durable,
//     removed on Open.
//
// Snapshots and new segments are published write-once: temp file, fsync,
// atomic rename, directory fsync, so a name never refers to half-written
// content. A segment is published with just its header, so its name is
// durable before any frame lands in it. The retired WFL1 format (one file
// per group commit) has no reader: Open fails on it, naming the format.
//
// # Replay
//
// Boot reads the store once: Snapshots decodes and checks the newest
// snapshot per shard, and Replay reads every live segment and validates
// every frame's CRC and every record's op encoding, the records those
// snapshots cover included. It hands its callback only the records above
// the snapshots, each decoded into one argument buffer Replay reuses, so
// a Record's Op.Args is valid only during the call it is passed to.
// Stats counts the snapshot files rejected and the covered records passed
// over.
//
// # Group commit
//
// AppendBatch blocks until its records are durable: it encodes them as one
// frame and commits it with one write and one fsync on the open segment,
// under the store's commit mutex. The grouping is the caller's: the server's
// single committer drains every shard's pending writes and hands the whole
// drain to one AppendBatch, so one fsync covers however many records queued
// behind the last one — under load, latency per append approaches one
// fsync / group size. Past segmentBytes AppendBatch seals the segment and
// publishes the next.
//
// # Torn-tail repair
//
// AppendBatch fsyncs frame k before it returns, and the commit mutex orders
// frame k+1 after it, so a crash can leave at most one frame that is not
// intact: the final frame of the newest
// segment, whose group was never acknowledged. Open cuts it off and fsyncs
// the cut before any later segment can exist, and appends after Open go to
// a fresh segment. A bad frame anywhere else — in a sealed segment, or with
// an intact frame after it — is ErrCorrupt.
//
// # Durability contract
//
// The server persists before it applies or acks (see internal/server), so
// the store's guarantee composes to durable linearizability: an
// acknowledged operation is in a durable frame (or covered by a durable
// snapshot) and survives kill -9; an unacknowledged operation may or may
// not survive, which is the standard ambiguity of any storage interface.
// The first write that fails poisons the store: every later AppendBatch and
// WriteSnapshot returns that error until the directory is reopened, so no
// batch is ever acknowledged on top of a hole. A partial frame a failed
// write leaves behind is the torn tail the next Open cuts off.
//
// Wait-freedom claims stop at the wait-free core this store feeds: the
// public methods carry function-level //wf:blocking (fsync, rename and the
// commit mutex are the point), and the commit paths are audited by wfvet's
// fsyncorder analyzer (//wf:durable on publish, writeFrame and
// truncateTail). The store runs no goroutine of its own.
package logstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"waitfree/internal/seqspec"
	"waitfree/internal/wire"
)

// Record is one decided operation bound for shard's log: Seq is the
// shard-local persistence sequence number assigned by the server's single
// committer (dense from 1 per shard), Op the decided operation. A Record
// Replay delivers lends its Op.Args only for the callback's duration.
type Record struct {
	Shard uint32
	Seq   uint64
	Op    seqspec.Op
}

// Snapshot is one shard's materialized state: State reflects every record
// of the shard with seq <= Seq. KV states are int64->int64 maps. A State
// map belongs to the store once handed to WriteSnapshot, and the maps
// Snapshots returns are shared with it: neither side mutates them.
type Snapshot struct {
	Shard uint32
	Seq   uint64
	State map[int64]int64
}

var (
	logMagic     = [4]byte{'W', 'F', 'L', '2'}
	retiredMagic = [4]byte{'W', 'F', 'L', '1'}
	snapMagic    = [4]byte{'W', 'F', 'S', '1'}
)

const (
	// segmentBytes is the size past which AppendBatch seals a segment and
	// starts the next. Boot reads every live segment whole, covered records
	// included, so a smaller segment is compacted sooner and a crash image
	// holds less of it.
	segmentBytes = 256 << 10
	// frameHeader is a frame's u32 len | u32 count; frameOverhead adds the
	// trailing u32 crc32.
	frameHeader   = 8
	frameOverhead = frameHeader + 4
	// recordHeader is a record's u32 shard | u64 seq, before its op.
	recordHeader = 12
)

// ErrClosed is returned by AppendBatch and WriteSnapshot after Close.
var ErrClosed = errors.New("logstore: store is closed")

// ErrCorrupt wraps integrity failures in committed segments. A bad frame
// that is not a torn final frame is fatal — it held acknowledged operations
// — while an invalid snapshot file is skipped (recovery just replays more
// records).
var ErrCorrupt = errors.New("logstore: corrupt log file")

// Stats is a point-in-time counter snapshot of the store's activity.
type Stats struct {
	Batches   int64 // frames committed (one per group commit)
	Records   int64 // records committed
	Snapshots int64 // snapshot files written
	Compacted int64 // files erased by Compact
	LogFiles  int64 // live segments
	Fsyncs    int64 // fsync syscalls issued (file + directory syncs)
	TornBytes int64 // bytes of a torn final frame Open cut off
	Orphans   int64 // tmp-* files Open removed
	// SnapshotsRejected counts the snapshot files Snapshots tried and
	// skipped as invalid; RecordsSkipped the covered records Replay
	// validated and passed over.
	SnapshotsRejected int64
	RecordsSkipped    int64
}

// segment is one live log segment. max is its per-shard newest seq, known
// once the segment is sealed by this process or replayed (nil before):
// Compact leaves a segment it does not know alone.
type segment struct {
	idx uint64
	max *shardSeqs
}

// shardSeqs is a seq per shard, 0 for none: a slice below denseShards,
// where every store a server writes keeps its shards, so boot pays no map
// operation per record, and a map above it, so a large shard number in an
// intact frame costs no large slice.
type shardSeqs struct {
	dense []uint64
	rest  map[uint32]uint64
}

const denseShards = 1 << 10

func (m *shardSeqs) get(shard uint32) uint64 {
	if int(shard) < len(m.dense) {
		return m.dense[shard]
	}
	return m.rest[shard]
}

// raise sets shard's seq to seq where that is higher.
func (m *shardSeqs) raise(shard uint32, seq uint64) {
	switch {
	case int(shard) < len(m.dense):
		m.dense[shard] = max(m.dense[shard], seq)
	case shard < denseShards:
		m.dense = append(m.dense, make([]uint64, int(shard)+1-len(m.dense))...)
		m.dense[shard] = seq
	case seq > m.rest[shard]:
		if m.rest == nil {
			m.rest = make(map[uint32]uint64)
		}
		m.rest[shard] = seq
	}
}

// coveredBy reports whether every shard's seq is at or below the seq of
// its snapshot in valid (a shard with a seq and no snapshot is not).
func (m *shardSeqs) coveredBy(valid map[uint32]Snapshot) bool {
	for shard, seq := range m.dense {
		if seq > valid[uint32(shard)].Seq {
			return false
		}
	}
	for shard, seq := range m.rest {
		if seq > valid[shard].Seq {
			return false
		}
	}
	return true
}

// Store is an open segment directory. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	dirf *os.File

	mu sync.Mutex
	// segs holds the live segments in ascending index order. active is the
	// index of the segment AppendBatch appends to (0 while none is open),
	// always the last entry, and synced is its fsynced length: Compact
	// never erases it and Replay reads it no further.
	segs   []segment
	active uint64
	synced int
	// tail is the newest segment's content as Open validated and cut it,
	// kept for the first Replay so that boot reads no segment twice.
	tail    []byte
	tailIdx uint64
	// snaps is the newest durable snapshot file per shard (by seq);
	// snapFiles lists every snap file still on disk for compaction.
	// validated caches the newest snapshot per shard that actually decodes
	// (filled lazily): Replay's covered-prefix skip and Snapshots' states
	// must come from the same set, or a corrupt snapshot would silently
	// swallow the log records it claimed to cover.
	snaps     map[uint32]snapRef
	snapFiles []snapRef
	validated map[uint32]Snapshot
	// rejected is how many snapshot files the validation that filled
	// validated skipped as invalid.
	rejected int64

	// commit serialises every write to the directory: AppendBatch,
	// WriteSnapshot and Close. It guards the fields below it.
	commit sync.Mutex
	// failed is the first error a log or snapshot write returned. It is
	// sticky: after a failed fsync the kernel may have dropped the dirty
	// pages and a retry can report success over a hole, so the store stops
	// writing and every later AppendBatch/WriteSnapshot returns this error
	// until the directory is reopened.
	failed error
	closed bool
	// The open segment (nil until the first commit), its length and
	// per-shard newest seq, the next segment index, the buffer every frame
	// and snapshot is encoded into, and a snapshot's sorted keys.
	seg     *os.File
	segLen  int
	segMax  *shardSeqs
	nextIdx uint64
	buf     []byte
	keys    []int64

	// Set by Open, read-only after.
	tornBytes int64
	orphans   int64

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
	// group commit amortizes one fsync over a whole drained batch, and this
	// counter is how a bench proves it.
	fsyncs atomic.Int64
	// skipped counts the covered records Replay passed over.
	skipped atomic.Int64
}

type snapRef struct {
	shard uint32
	seq   uint64
	name  string
}

func segName(idx uint64) string { return fmt.Sprintf("log-%016d", idx) }

// Open opens (creating if needed) the store directory at dir: removes tmp-*
// orphans from a previous crash, indexes the segments and snapshots, cuts a
// torn final frame off the newest segment.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		dirf:    dirf,
		nextIdx: 1,
		snaps:   make(map[uint32]snapRef),
	}
	names, err := dirf.Readdirnames(-1)
	if err != nil {
		dirf.Close()
		return nil, err
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "tmp-"):
			// A publication that never reached its rename: never durable,
			// never promised.
			if os.Remove(filepath.Join(dir, name)) == nil {
				s.orphans++
			}
		case strings.HasPrefix(name, "log-"):
			idx, err := strconv.ParseUint(name[len("log-"):], 10, 64)
			if err != nil {
				continue
			}
			s.segs = append(s.segs, segment{idx: idx})
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
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].idx < s.segs[j].idx })
	if n := len(s.segs); n > 0 {
		s.nextIdx = s.segs[n-1].idx + 1
		if err := s.repairTail(s.segs[n-1].idx); err != nil {
			dirf.Close()
			return nil, err
		}
	}
	return s, nil
}

// repairTail reads the newest segment and cuts off a torn final frame, the
// one frame a crash can leave unsynced. The cut is fsynced before Open
// returns, so before any later segment exists. The valid content is kept
// for the first Replay.
func (s *Store) repairTail(idx uint64) error {
	name := segName(idx)
	path := filepath.Join(s.dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	n, err := intactLen(name, b)
	if err != nil {
		return err
	}
	if n < len(b) {
		if err := s.truncateTail(path, int64(n)); err != nil {
			return err
		}
		s.tornBytes = int64(len(b) - n)
	}
	s.tail, s.tailIdx = b[:n], idx
	return nil
}

// truncateTail cuts the segment at path back to size and fsyncs the cut —
// the repair half of the append commit fsyncorder verifies.
//
//wf:durable
func (s *Store) truncateTail(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	s.n.fsyncs.Add(1)
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Dir returns the store's directory path.
func (s *Store) Dir() string { return s.dir }

// AppendBatch durably commits recs as one batch: it returns only after the
// records are in a CRC-sealed frame fsynced into the open segment. This is
// the server committer's entry point — it drains every shard's pending
// writes and commits the whole drain here, paying one fsync for N records.
// Concurrent calls commit one after another, one frame each. Records of one
// batch stay contiguous and in order, and an empty batch returns nil
// without touching the segment.
//
//wf:blocking takes the commit mutex and fsyncs the frame
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.commit.Lock()
	defer s.commit.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed == nil {
		s.failed = s.commitFrame(recs)
	}
	return s.failed
}

// commitFrame encodes recs as one frame into the reused buffer and commits
// it to the open segment, first sealing a full segment (or opening the
// first). The caller holds commit.
//
//wf:blocking publishes the fsynced length under the store mutex
func (s *Store) commitFrame(recs []Record) error {
	if s.seg == nil || s.segLen >= segmentBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	s.buf = appendFrame(s.buf[:0], recs)
	if err := s.writeFrame(s.buf); err != nil {
		return err
	}
	s.segLen += len(s.buf)
	for _, r := range recs {
		s.segMax.raise(r.Shard, r.Seq)
	}
	s.mu.Lock()
	s.synced = s.segLen
	s.mu.Unlock()
	s.n.batches.Add(1)
	s.n.records.Add(int64(len(recs)))
	return nil
}

// appendFrame appends one frame holding recs to b.
func appendFrame(b []byte, recs []Record) []byte {
	start := len(b)
	b = append(b, make([]byte, frameHeader)...)
	for _, r := range recs {
		b = binary.BigEndian.AppendUint32(b, r.Shard)
		b = binary.BigEndian.AppendUint64(b, r.Seq)
		b = wire.AppendOp(b, r.Op)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(len(b)-start-frameHeader))
	binary.BigEndian.PutUint32(b[start+4:], uint32(len(recs)))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// writeFrame appends one sealed frame to the open segment and makes it
// durable: one write, one fsync — the append commit fsyncorder verifies.
//
//wf:durable
func (s *Store) writeFrame(frame []byte) error {
	if _, err := s.seg.Write(frame); err != nil {
		return err
	}
	s.n.fsyncs.Add(1)
	return s.seg.Sync()
}

// rotate seals the open segment, if any, and publishes the next one with
// just its header. Every frame of the sealed segment was fsynced before its
// AppendBatch returned, so closing it reports nothing a reopen needs.
//
//wf:blocking swaps the active segment under the store mutex
func (s *Store) rotate() error {
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
		s.mu.Lock()
		s.segs[len(s.segs)-1].max = s.segMax
		s.active = 0
		s.mu.Unlock()
	}
	f, err := s.publish(segName(s.nextIdx), logMagic[:])
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.segs = append(s.segs, segment{idx: s.nextIdx})
	s.active, s.synced = s.nextIdx, len(logMagic)
	s.mu.Unlock()
	s.seg, s.segLen, s.segMax = f, len(logMagic), &shardSeqs{}
	s.nextIdx++
	return nil
}

// publish atomically creates name with content: temp file, file fsync,
// rename, directory fsync — the ordering fsyncorder verifies. It returns
// the file still open, positioned after content.
//
//wf:durable
func (s *Store) publish(name string, content []byte) (*os.File, error) {
	f, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	if _, err := f.Write(content); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	s.n.fsyncs.Add(1)
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	s.n.fsyncs.Add(1)
	if err := s.dirf.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// frameAt returns the length of the intact frame at the start of b, or 0
// if none starts there: a nonzero count, the records and CRC inside b, and
// a CRC that matches.
func frameAt(b []byte) int {
	if len(b) < frameOverhead || binary.BigEndian.Uint32(b[4:]) == 0 {
		return 0
	}
	n := uint64(binary.BigEndian.Uint32(b))
	if n > uint64(len(b)-frameOverhead) {
		return 0
	}
	end := frameHeader + int(n)
	if crc32.ChecksumIEEE(b[:end]) != binary.BigEndian.Uint32(b[end:]) {
		return 0
	}
	return end + 4
}

// checkHeader validates a segment's magic.
func checkHeader(name string, b []byte) error {
	switch {
	case len(b) >= len(logMagic) && [4]byte(b[:4]) == logMagic:
		return nil
	case len(b) >= len(retiredMagic) && [4]byte(b[:4]) == retiredMagic:
		return fmt.Errorf("%w: %s is in the retired WFL1 format (one file per group commit), which this version cannot read", ErrCorrupt, name)
	}
	return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
}

// intactLen returns the length of the newest segment's prefix of intact
// frames. The first bad frame ends it when no intact frame starts anywhere
// after it: that is the torn final frame. A bad frame with an intact frame
// after it is ErrCorrupt.
func intactLen(name string, b []byte) (int, error) {
	if err := checkHeader(name, b); err != nil {
		return 0, err
	}
	off := len(logMagic)
	for off < len(b) {
		n := frameAt(b[off:])
		if n == 0 {
			break
		}
		off += n
	}
	for p := off + 1; p+frameOverhead <= len(b); p++ {
		if frameAt(b[p:]) > 0 {
			return 0, fmt.Errorf("%w: %s: bad frame at offset %d before an intact one at %d", ErrCorrupt, name, off, p)
		}
	}
	return off, nil
}

// readSegment calls fn on every record of segment b, in order, decoding
// every record's op arguments into *args, which it grows as needed: a
// record's Op.Args is valid only during its fn call. Every frame must be
// intact: Open already cut off the one frame a crash can tear, so a bad
// frame here is ErrCorrupt.
func readSegment(name string, b []byte, args *[]int64, fn func(Record) error) error {
	if err := checkHeader(name, b); err != nil {
		return err
	}
	for off := len(logMagic); off < len(b); {
		n := frameAt(b[off:])
		if n == 0 {
			return fmt.Errorf("%w: %s: bad checksum in frame at offset %d", ErrCorrupt, name, off)
		}
		count := binary.BigEndian.Uint32(b[off+4:])
		body := b[off+frameHeader : off+n-4]
		for i := uint32(0); i < count; i++ {
			if len(body) < recordHeader {
				return fmt.Errorf("%w: %s: truncated record in frame at offset %d", ErrCorrupt, name, off)
			}
			op, rest, err := wire.DecodeOpInto(body[recordHeader:], *args)
			if err != nil {
				return fmt.Errorf("%w: %s: bad op encoding in frame at offset %d", ErrCorrupt, name, off)
			}
			if cap(op.Args) > cap(*args) {
				*args = op.Args
			}
			r := Record{Shard: binary.BigEndian.Uint32(body), Seq: binary.BigEndian.Uint64(body[4:]), Op: op}
			body = rest
			if err := fn(r); err != nil {
				return err
			}
		}
		if len(body) != 0 {
			return fmt.Errorf("%w: %s: trailing bytes in frame at offset %d", ErrCorrupt, name, off)
		}
		off += n
	}
	return nil
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
	rejected := int64(0)
	for _, ref := range refs {
		snap, err := s.readSnapshot(ref)
		if err == nil {
			out[ref.shard] = snap
			continue
		}
		rejected++
		// Fall back to the newest older snapshot of the shard that decodes.
		var older []snapRef
		for _, o := range all {
			if o.shard == ref.shard && o.seq < ref.seq {
				older = append(older, o)
			}
		}
		sort.Slice(older, func(i, j int) bool { return older[i].seq > older[j].seq })
		for _, o := range older {
			snap, err := s.readSnapshot(o)
			if err == nil {
				out[ref.shard] = snap
				break
			}
			rejected++
		}
	}
	s.mu.Lock()
	if s.validated == nil {
		s.validated = make(map[uint32]Snapshot, len(out))
		for shard, snap := range out {
			s.validated[shard] = snap
		}
		s.rejected = rejected
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
// erase every log record of the shard with seq <= snap.Seq. The caller
// hands snap.State over: the store keeps the map, uncopied, as the shard's
// validated state, so the caller must not mutate it afterwards.
//
//wf:blocking takes the commit mutex, fsyncs the snapshot file and updates the index under the store mutex
func (s *Store) WriteSnapshot(snap Snapshot) error {
	s.commit.Lock()
	defer s.commit.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	buf := append(s.buf[:0], snapMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, snap.Shard)
	buf = binary.BigEndian.AppendUint64(buf, snap.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(snap.State)))
	keys := s.keys[:0]
	for k := range snap.State {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s.keys = keys
	for _, k := range keys {
		buf = binary.AppendVarint(buf, k)
		buf = binary.AppendVarint(buf, snap.State[k])
	}
	s.buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[4:]))
	name := fmt.Sprintf("snap-%010d-%016d", snap.Shard, snap.Seq)
	f, err := s.publish(name, s.buf)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		s.failed = err
		return err
	}
	ref := snapRef{shard: snap.Shard, seq: snap.Seq, name: name}
	s.mu.Lock()
	s.snapFiles = append(s.snapFiles, ref)
	if cur, ok := s.snaps[snap.Shard]; !ok || snap.Seq > cur.seq {
		s.snaps[snap.Shard] = ref
	}
	// A snapshot we just wrote and fsynced is valid by construction.
	if s.validated != nil {
		if cur, ok := s.validated[snap.Shard]; !ok || snap.Seq > cur.Seq {
			s.validated[snap.Shard] = snap
		}
	}
	s.mu.Unlock()
	s.n.snapCount.Add(1)
	return nil
}

// Replay streams every committed record not covered by the newest durable
// snapshots, in commit order, to fn. Load the states from Snapshots()
// first; together they reconstruct exactly the durable history. Replay
// validates every frame's seal and every record's op encoding, covered
// records included, and fails with ErrCorrupt on a bad one — sealed frames
// held acknowledged writes, so silence would be data loss. It passes over
// a covered record without calling fn and counts it in
// Stats.RecordsSkipped. The active segment is read only up to its fsynced
// length. Safe to call more than once (it re-reads the segments each
// time); the records delivered are identical, so replay is idempotent as
// long as fn applies them to a fresh state.
//
// Replay decodes every record's op arguments into one buffer it reuses: a
// Record's Op.Args is valid only during the fn call it is passed to, so fn
// copies the arguments it keeps.
//
//wf:blocking reads and validates every live segment
func (s *Store) Replay(fn func(Record) error) error {
	// The covered prefix comes from the *validated* snapshot set (same as
	// Snapshots), never from file names alone: skipping records behind a
	// snapshot that doesn't decode would lose acknowledged writes.
	valid, err := s.Snapshots()
	if err != nil {
		return err
	}
	var covered shardSeqs
	for shard, snap := range valid {
		covered.raise(shard, snap.Seq)
	}
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	active, synced := s.active, s.synced
	tail, tailIdx := s.tail, s.tailIdx
	s.tail = nil
	s.mu.Unlock()

	var buf []byte // every segment but the one Open kept
	var args []int64
	for _, seg := range segs {
		name := segName(seg.idx)
		b := tail
		if seg.idx != tailIdx || tail == nil {
			if buf, err = readFile(filepath.Join(s.dir, name), buf); err != nil {
				return err
			}
			b = buf
		}
		if seg.idx == active {
			if len(b) < synced {
				return fmt.Errorf("%w: %s: shorter than its fsynced length %d", ErrCorrupt, name, synced)
			}
			b = b[:synced]
		}
		var max *shardSeqs
		if seg.max == nil && seg.idx != active {
			max = &shardSeqs{}
		}
		skipped := int64(0)
		err := readSegment(name, b, &args, func(r Record) error {
			if max != nil {
				max.raise(r.Shard, r.Seq)
			}
			if r.Seq <= covered.get(r.Shard) {
				skipped++ // the snapshot already reflects it
				return nil
			}
			return fn(r)
		})
		s.n.skipped.Add(skipped)
		if err != nil {
			return err
		}
		if max != nil {
			s.mu.Lock()
			for i := range s.segs {
				if s.segs[i].idx == seg.idx && s.segs[i].max == nil {
					s.segs[i].max = max
				}
			}
			s.mu.Unlock()
		}
	}
	return nil
}

// readFile reads the file at path, as long as it was when opened, into
// buf's backing array, growing it when the file is larger, and returns the
// content. Replay reads no segment past that length: a sealed segment
// never grows, and the active one is cut at its fsynced length, which the
// file had reached before Replay opened it.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Compact erases files made redundant by newer snapshots: sealed segments
// whose every record is covered by the current *validated* per-shard
// snapshots (same set Replay skips by — erasing behind an unverified
// snapshot would lose acked data), and snapshot files superseded by a newer
// valid one for the same shard. Only segments whose contents this process
// has seen (sealed or replayed) are considered, and never the one
// AppendBatch is appending to. Returns the number of files erased. Safe to
// crash at any point: erasure is idempotent and recovery never needs an
// erased file.
//
//wf:blocking erases files and fsyncs the directory under the store mutex
func (s *Store) Compact() (int, error) {
	valid, err := s.Snapshots()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	var victims []string
	keepSegs := s.segs[:0]
	for _, seg := range s.segs {
		if seg.max != nil && seg.idx != s.active && seg.max.coveredBy(valid) {
			victims = append(victims, segName(seg.idx))
		} else {
			keepSegs = append(keepSegs, seg)
		}
	}
	s.segs = keepSegs
	var keepSnaps []snapRef
	for _, ref := range s.snapFiles {
		if snap, ok := valid[ref.shard]; ok && ref.seq < snap.Seq {
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
//wf:blocking takes the store mutex to read the live segment and rejected snapshot counts
func (s *Store) Stats() Stats {
	s.mu.Lock()
	live, rejected := int64(len(s.segs)), s.rejected
	s.mu.Unlock()
	return Stats{
		Batches:   s.n.batches.Load(),
		Records:   s.n.records.Load(),
		Snapshots: s.n.snapCount.Load(),
		Compacted: s.n.compacted.Load(),
		LogFiles:  live,
		Fsyncs:    s.n.fsyncs.Load(),
		TornBytes: s.tornBytes,
		Orphans:   s.orphans,

		SnapshotsRejected: rejected,
		RecordsSkipped:    s.n.skipped.Load(),
	}
}

// Close waits for a commit in progress and releases the segment and
// directory handles. Writes issued after Close return ErrClosed.
//
//wf:blocking waits on the commit mutex for a commit in progress
func (s *Store) Close() error {
	s.commit.Lock()
	defer s.commit.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg != nil {
		// Every frame was fsynced before its AppendBatch returned, so
		// closing reports nothing a reopen needs; the handle may also be
		// one a failed write already left closed.
		s.seg.Close()
	}
	return s.dirf.Close()
}
