package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

func put(k, v int64) seqspec.Op { return seqspec.Op{Kind: "put", Args: []int64{k, v}} }
func del(k int64) seqspec.Op    { return seqspec.Op{Kind: "del", Args: []int64{k}} }
func get(k int64) seqspec.Op    { return seqspec.Op{Kind: "get", Args: []int64{k}} }

// recoverKV reopens dir and reconstructs the KV state the durable history
// defines: newest snapshots first, then every uncovered record in commit
// order — exactly what the server's boot replay does.
func recoverKV(t *testing.T, dir string) (seqspec.State, *Store) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	state := seqspec.KV{}.Init()
	snaps, err := st.Snapshots()
	if err != nil {
		t.Fatalf("Snapshots: %v", err)
	}
	for _, snap := range snaps {
		for k, v := range snap.State {
			state.Apply(put(k, v))
		}
	}
	if err := st.Replay(func(r Record) error {
		state.Apply(r.Op)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return state, st
}

// TestStoreRoundTrip: committed records survive close/reopen bit-exact and
// in commit order, and the recovered state passes the linearizability
// checker against the acked history — the durable-linearizability claim in
// its simplest form.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The acked history: every op is appended (durable) before its response
	// is computed and recorded, the server's persist-before-apply order.
	var rec linearize.Recorder
	ref := seqspec.KV{}.Init()
	ops := []seqspec.Op{put(1, 10), put(2, 20), del(1), put(2, 21), put(3, 30)}
	for i, op := range ops {
		if err := st.AppendBatch([]Record{{Shard: 0, Seq: uint64(i + 1), Op: op}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		ts := rec.Invoke()
		rec.Complete(0, op, ref.Apply(op), ts)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	state, st2 := recoverKV(t, dir)
	defer st2.Close()
	for _, k := range []int64{1, 2, 3} {
		ts := rec.Invoke()
		rec.Complete(0, get(k), state.Apply(get(k)), ts)
	}
	if res := linearize.Check(seqspec.KV{}, rec.History()); !res.OK {
		t.Fatal("recovered reads + acked writes are not linearizable")
	}
}

// TestAppendBatchAllocs: a steady-state group commit allocates nothing —
// the frame is encoded into the store's reused buffer, and the open
// segment is written and fsynced in place.
func TestAppendBatchAllocs(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := []Record{{Shard: 0, Op: put(1, 10)}, {Shard: 0, Op: put(2, 20)}}
	seq := uint64(0)
	got := testing.AllocsPerRun(100, func() {
		for i := range recs {
			seq++
			recs[i].Seq = seq
		}
		if err := st.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("AppendBatch round trip allocates %.0f times, want 0", got)
	}
}

// TestReplayAllocs: Replay's allocations do not grow with the record
// count. Two stores hold the same files, two shards with a snapshot
// each, in one segment, but 4x the records of the other: half of them
// covered, half delivered, with arguments of every varint width. Opening
// either and replaying it must allocate equally: the arguments decode into
// one reused buffer, and the per-shard seqs live in a slice.
func TestReplayAllocs(t *testing.T) {
	build := func(perShard int) string {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var recs []Record
		for i := 1; i <= perShard; i++ {
			for sh := uint32(0); sh < 2; sh++ {
				recs = append(recs, Record{Shard: sh, Seq: uint64(i), Op: put(int64(i)<<(i%60), -int64(i))})
			}
			if len(recs) >= 64 || i == perShard {
				if err := st.AppendBatch(recs); err != nil {
					t.Fatal(err)
				}
				recs = recs[:0]
			}
		}
		for sh := uint32(0); sh < 2; sh++ {
			if err := st.WriteSnapshot(Snapshot{Shard: sh, Seq: uint64(perShard / 2), State: map[int64]int64{1: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	const short = 200
	allocs := func(dir string) (float64, int) {
		delivered := 0
		a := testing.AllocsPerRun(50, func() {
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			delivered = 0
			if err := st.Replay(func(Record) error { delivered++; return nil }); err != nil {
				t.Fatal(err)
			}
			if n := st.Stats().LogFiles; n != 1 {
				t.Fatalf("%d segments, want 1", n)
			}
			st.Close()
		})
		return a, delivered
	}
	aShort, nShort := allocs(build(short))
	aLong, nLong := allocs(build(4 * short))
	if nShort != short || nLong != 4*short {
		t.Fatalf("replayed %d and %d records, want %d and %d", nShort, nLong, short, 4*short)
	}
	// Two allocations of slack: a sync.Pool emptied by a GC the larger
	// files bring on refills once more. One per record would be 1 200.
	if aLong > aShort+2 {
		t.Errorf("Open+Replay allocates %.0f times over %d records, %.0f over %d: want no growth", aShort, 2*short, aLong, 8*short)
	}
}

// TestGroupCommitConcurrent: concurrent appenders all become durable, each
// shard's records replay in seq order, and every AppendBatch call commits
// exactly one frame of its own: the grouping is the caller's drain, and the
// commit mutex serialises the calls.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const shards, perShard = 4, 50
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		sh := sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perShard; i++ {
				err := st.AppendBatch([]Record{{Shard: uint32(sh), Seq: uint64(i), Op: put(int64(sh), int64(i))}})
				if err != nil {
					t.Errorf("shard %d append %d: %v", sh, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := st.Stats().Batches; got != shards*perShard {
		t.Errorf("batches = %d, want one per append (%d)", got, shards*perShard)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	last := make(map[uint32]uint64)
	total := 0
	if err := st2.Replay(func(r Record) error {
		if r.Seq != last[r.Shard]+1 {
			return fmt.Errorf("shard %d: seq %d after %d", r.Shard, r.Seq, last[r.Shard])
		}
		last[r.Shard] = r.Seq
		total++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if total != shards*perShard {
		t.Fatalf("replayed %d records, want %d", total, shards*perShard)
	}
}

// TestTornTempFileIgnored is fault injection #1: a crash mid-write leaves
// a tmp-* orphan (partial content, no rename). Recovery must discard it —
// it was never durable, never acked — and the replayed state must still
// linearize against the acked history.
func TestTornTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]Record{{Shard: 0, Seq: 1, Op: put(7, 70)}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// The torn write: half a log file's worth of garbage under tmp-.
	torn := filepath.Join(dir, "tmp-123456")
	if err := os.WriteFile(torn, []byte("WFL1\x00\x00\x00\x09garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	state, st2 := recoverKV(t, dir)
	defer st2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("recovery left the torn temp file behind")
	}
	var rec linearize.Recorder
	ts := rec.Invoke()
	rec.Complete(0, put(7, 70), seqspec.KV{}.Init().Apply(put(7, 70)), ts)
	ts = rec.Invoke()
	rec.Complete(0, get(7), state.Apply(get(7)), ts)
	if res := linearize.Check(seqspec.KV{}, rec.History()); !res.OK {
		t.Fatal("state after torn-temp recovery not linearizable")
	}
}

// TestCrashBetweenWriteAndRename is fault injection #2: a write-once
// publication was fully written and fsynced but the crash hit before the
// rename, so nothing in it was ever acked. Recovery must treat it as
// never-happened: drop the orphan, serve exactly the previously acked state.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]Record{{Shard: 0, Seq: 1, Op: put(1, 11)}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// A byte-perfect segment parked under its temp name: exactly what the
	// disk holds when the crash lands between fsync(file) and rename.
	committed, err := os.ReadFile(filepath.Join(dir, "log-"+strings.Repeat("0", 15)+"1"))
	if err != nil {
		t.Fatal(err)
	}
	never := bytes.Replace(committed, []byte{11 * 2}, []byte{99 * 2}, 1) // the zig-zag varint of value 11 -> 99
	if err := os.WriteFile(filepath.Join(dir, "tmp-55555"), never, 0o644); err != nil {
		t.Fatal(err)
	}

	state, st2 := recoverKV(t, dir)
	defer st2.Close()
	if got := state.Apply(get(1)); got != 11 {
		t.Errorf("get(1) = %d after crash-before-rename, want the acked 11 (99 was never renamed, never acked)", got)
	}
	// And the store keeps working: the next append after recovery lands in
	// a fresh segment and survives another cycle.
	if err := st2.AppendBatch([]Record{{Shard: 0, Seq: 2, Op: put(1, 12)}}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	state3, st3 := recoverKV(t, dir)
	defer st3.Close()
	if got := state3.Apply(get(1)); got != 12 {
		t.Errorf("get(1) = %d after second recovery, want 12", got)
	}
}

// TestDoubleReplayIdempotent is fault injection #3: replay is re-runnable
// — a recovery that itself crashes and re-replays must reconstruct the
// identical state, and Replay on one open store delivers the same records
// every time.
func TestDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := st.AppendBatch([]Record{{Shard: 0, Seq: uint64(i), Op: put(int64(i%5), int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot partway through, so replay exercises the covered-prefix
	// skip on both passes.
	if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: 20, State: map[int64]int64{0: 20, 1: 16, 2: 17, 3: 18, 4: 19}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	replayOnce := func() (seqspec.State, []string) {
		state, st := recoverKV(t, dir)
		defer st.Close()
		var seen []string
		if err := st.Replay(func(r Record) error { // second pass on the same open store
			seen = append(seen, fmt.Sprintf("%d:%d:%s", r.Shard, r.Seq, r.Op))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return state, seen
	}
	s1, r1 := replayOnce()
	s2, r2 := replayOnce()
	if len(r1) != len(r2) {
		t.Fatalf("replay delivered %d then %d records", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("replay %d: %s vs %s", i, r1[i], r2[i])
		}
	}
	for k := int64(0); k < 5; k++ {
		if a, b := s1.Apply(get(k)), s2.Apply(get(k)); a != b {
			t.Errorf("get(%d) differs across recoveries: %d vs %d", k, a, b)
		}
	}
	// The double-applied snapshot prefix must not double-count: key 0's
	// last write is op 40 (put(0,40)), replayed exactly once over the
	// snapshot base.
	if got := s1.Apply(get(0)); got != 40 {
		t.Errorf("get(0) = %d, want 40", got)
	}
}

// TestSnapshotCompact: a snapshot covering the whole log lets Compact
// erase every sealed segment and the superseded snapshot, but never the
// segment AppendBatch is appending to, and recovery from the compacted
// directory serves the identical state.
func TestSnapshotCompact(t *testing.T) {
	dir := t.TempDir()
	state := seqspec.KV{}.Init()
	appendRange := func(st *Store, lo, hi int) {
		for i := lo; i <= hi; i++ {
			op := put(int64(i%4), int64(i))
			state.Apply(op)
			if err := st.AppendBatch([]Record{{Shard: 0, Seq: uint64(i), Op: op}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Segment 1 is sealed by the reopen; segment 2 is the active one.
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendRange(st, 1, 15)
	st.Close()
	_, st = recoverKV(t, dir)
	appendRange(st, 16, 30)
	if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: 15, State: map[int64]int64{0: 12, 1: 13, 2: 14, 3: 15}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: 30, State: map[int64]int64{0: 28, 1: 29, 2: 30, 3: 27}}); err != nil {
		t.Fatal(err)
	}
	n, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("Compact erased %d files, want the sealed segment and the superseded snapshot", n)
	}
	if live := st.Stats().LogFiles; live != 1 {
		t.Errorf("%d segments left after full compaction, want only the active one", live)
	}
	st.Close()

	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{segName(2), fmt.Sprintf("snap-%010d-%016d", 0, 30)}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("after compaction the directory holds %v, want %v", names, want)
	}

	got, st2 := recoverKV(t, dir)
	defer st2.Close()
	for k := int64(0); k < 4; k++ {
		if a, b := got.Apply(get(k)), state.Apply(get(k)); a != b {
			t.Errorf("get(%d) = %d after compaction, want %d", k, a, b)
		}
	}
}

// TestLargeShardNumbers: shard numbers beyond the per-shard seqs' slice
// (denseShards) go to their map, in Replay's covered-prefix skip and in
// the per-segment newest seqs Compact goes by. A sealed segment holds
// shards 3 and 1<<31, seqs 1-6 each, and both shards have a snapshot at
// seq 4: Replay delivers seqs 5-6 of each, and Compact keeps the segment
// until snapshots at seq 6 cover both shards, the large one last.
func TestLargeShardNumbers(t *testing.T) {
	const big = 1 << 31
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := st.AppendBatch([]Record{{Shard: big, Seq: uint64(i), Op: put(1, int64(i))}, {Shard: 3, Seq: uint64(i), Op: put(2, int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range []uint32{3, big} {
		if err := st.WriteSnapshot(Snapshot{Shard: sh, Seq: 4, State: map[int64]int64{}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []string
	if err := st.Replay(func(r Record) error { got = append(got, fmt.Sprintf("%d:%d", r.Shard, r.Seq)); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d:5 3:5 %d:6 3:6", big, big); strings.Join(got, " ") != want {
		t.Fatalf("Replay delivered %v, want %s", got, want)
	}
	if n := st.Stats().RecordsSkipped; n != 8 {
		t.Errorf("RecordsSkipped = %d, want 8", n)
	}
	// The reopen opens no segment, so the one on disk is sealed and known.
	for _, step := range []struct {
		shard uint32
		segs  int64 // live segments after the snapshot and a Compact
	}{{3, 1}, {big, 0}} {
		if err := st.WriteSnapshot(Snapshot{Shard: step.shard, Seq: 6, State: map[int64]int64{}}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if live := st.Stats().LogFiles; live != step.segs {
			t.Fatalf("after shard %d's snapshot at seq 6: %d live segments, want %d", step.shard, live, step.segs)
		}
	}
}

// TestCorruptSnapshotFallsBack: a bit-flipped snapshot fails its CRC and
// recovery falls back — to an older valid snapshot or to pure log replay —
// rather than serving corrupt state or refusing to start.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := st.AppendBatch([]Record{{Shard: 0, Seq: uint64(i), Op: put(1, int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: 10, State: map[int64]int64{1: 10}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Flip a byte in the snapshot body.
	var snapName string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") {
			snapName = e.Name()
		}
	}
	path := filepath.Join(dir, snapName)
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	state, st2 := recoverKV(t, dir)
	defer st2.Close()
	if got := state.Apply(get(1)); got != 10 {
		t.Errorf("get(1) = %d with corrupt snapshot, want 10 via log replay", got)
	}
}

// TestCorruptLogFileFatal: a frame that was fsynced before a later one was
// written held acknowledged writes, so a byte flip there must fail loudly
// (ErrCorrupt) instead of silently dropping acked data — in a sealed
// segment (found by Replay) and in a non-final frame of the newest (found
// by Open). The newest segment's final frame is the one place a flip reads
// as a torn write: Open cuts it off and counts the bytes.
func TestCorruptLogFileFatal(t *testing.T) {
	pristine := t.TempDir()
	// Segment 1 holds seqs 1-2 and is sealed by the reopen; segment 2, the
	// newest, holds seqs 3-5 in three frames.
	for _, seqs := range [][]uint64{{1, 2}, {3, 4, 5}} {
		_, st := recoverKV(t, pristine)
		for _, seq := range seqs {
			if err := st.AppendBatch([]Record{{Shard: 0, Seq: seq, Op: put(1, int64(seq))}}); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
	}
	newest, err := os.ReadFile(filepath.Join(pristine, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	var frames []int // offsets of the newest segment's frames
	for off := len(logMagic); off < len(newest); off += frameAt(newest[off:]) {
		frames = append(frames, off)
	}
	if len(frames) != 3 {
		t.Fatalf("newest segment has %d frames, want 3", len(frames))
	}
	final := len(newest) - frames[2]

	for _, tc := range []struct {
		name   string
		seg    uint64
		off    int  // byte to flip
		atOpen bool // Open itself must refuse
		seqs   int  // records recovered when the flip is a torn tail
	}{
		{"sealed segment", 1, len(logMagic) + frameHeader + 5, false, 0},
		{"non-final frame of the newest", 2, frames[1] + frameHeader + 5, true, 0},
		{"final frame of the newest", 2, frames[2] + frameHeader + 5, false, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, idx := range []uint64{1, 2} {
				b, err := os.ReadFile(filepath.Join(pristine, segName(idx)))
				if err != nil {
					t.Fatal(err)
				}
				if idx == tc.seg {
					b[tc.off] ^= 0xff
				}
				if err := os.WriteFile(filepath.Join(dir, segName(idx)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := Open(dir)
			if tc.atOpen {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			var got int
			err = st.Replay(func(Record) error { got++; return nil })
			if tc.seqs == 0 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Replay = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil || got != tc.seqs {
				t.Fatalf("Replay = %v with %d records, want the %d before the torn frame", err, got, tc.seqs)
			}
			if torn := st.Stats().TornBytes; torn != int64(final) {
				t.Errorf("TornBytes = %d, want the final frame's %d", torn, final)
			}
			if fi, err := os.Stat(filepath.Join(dir, segName(2))); err != nil || fi.Size() != int64(frames[2]) {
				t.Errorf("newest segment not cut back to %d bytes: %v, %v", frames[2], fi, err)
			}
		})
	}
}

// TestRetiredFormatRefused: there is no reader for the one-file-per-group
// WFL1 format, so Open fails on such a directory and says which format it
// found.
func TestRetiredFormatRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("WFL1\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "WFL1") {
		t.Fatalf("Open over a WFL1 log = %v, want an error naming the format", err)
	}
}

// TestAppendAfterClose: the lifecycle edge — Append after Close errors
// rather than hanging or panicking.
func TestAppendAfterClose(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.AppendBatch([]Record{{Shard: 0, Seq: 1, Op: put(1, 1)}}); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestWriteFailureIsSticky: the failed-fsync policy. Once a commit fails the
// store refuses every later write with that first error, even after the
// fault clears — otherwise the next group would be acked on top of the hole
// the failed one left. The fault is injected on the open segment's handle
// (closed between two commits) and cleared by handing the store a working
// handle again.
func TestWriteFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]Record{{Shard: 0, Seq: 1, Op: put(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	// AppendBatch commits on its caller's goroutine under the commit mutex,
	// so these handle swaps between two calls are ordered with its use of
	// st.seg.
	st.seg.Close()
	first := st.AppendBatch([]Record{{Shard: 0, Seq: 2, Op: put(1, 2)}})
	if first == nil {
		t.Fatal("AppendBatch through a closed segment handle succeeded")
	}
	if st.seg, err = os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch([]Record{{Shard: 0, Seq: 3, Op: put(1, 3)}}); err != first {
		t.Fatalf("AppendBatch after the fault cleared = %v, want the first error %v", err, first)
	}
	if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: 3, State: map[int64]int64{1: 3}}); err != first {
		t.Fatalf("WriteSnapshot after the fault cleared = %v, want the first error %v", err, first)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close of a failed store = %v", err)
	}

	state, st2 := recoverKV(t, dir)
	defer st2.Close()
	if got := state.Apply(get(1)); got != 1 {
		t.Errorf("get(1) = %d after reopen, want 1 (only the pre-failure record)", got)
	}
	if err := st2.AppendBatch([]Record{{Shard: 0, Seq: 2, Op: put(1, 2)}}); err != nil {
		t.Errorf("AppendBatch on the reopened store = %v", err)
	}
}
