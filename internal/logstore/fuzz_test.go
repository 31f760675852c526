package logstore

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/seqspec"
)

// FuzzLogSegment writes a valid segment from fuzzed groups, damages its
// tail with fuzzed bytes, then opens and replays it. Neither may panic, and
// the outcome must be ErrCorrupt or a prefix of the records written above
// the snapshot — differential against what was written, like
// FuzzDecodeStream. Each byte of groups is one group: its low three bits
// are the record count less one, the next two the shard. at >= 0
// overwrites the segment in place from offset at (mod its length + 1),
// extending it if tail runs past the end; at < 0 cuts -at-1 bytes (mod its
// length + 1) off the end and appends tail. The directory also holds a
// snapshot of shard 0 at seq snap, so Replay both delivers records and
// passes covered ones over; snap 0 covers nothing.
func FuzzLogSegment(f *testing.F) {
	f.Add([]byte{0x00, 0x0a, 0x13}, []byte{}, -1, uint8(0))
	f.Add([]byte{0x00, 0x0a, 0x13}, []byte{}, -6, uint8(1))
	f.Add([]byte{0x07, 0x1f}, []byte{0xff}, 40, uint8(3))
	f.Add([]byte{0x01}, []byte("garbage after the last frame"), -1, uint8(2))
	f.Add([]byte{0x02, 0x02}, []byte("WFL1"), 0, uint8(0))
	f.Fuzz(func(t *testing.T, groups, tail []byte, at int, snap uint8) {
		if len(groups) > 64 {
			groups = groups[:64]
		}
		seg := append([]byte(nil), logMagic[:]...)
		var written []Record
		seqs := map[uint32]uint64{}
		for i, g := range groups {
			recs := make([]Record, g&7+1)
			sh := uint32(g>>3) & 3
			for j := range recs {
				seqs[sh]++
				recs[j] = Record{Shard: sh, Seq: seqs[sh], Op: seqspec.Op{Kind: "put", Args: []int64{int64(i), int64(g) - int64(j)}}}
			}
			seg = appendFrame(seg, recs)
			written = append(written, recs...)
		}
		if at >= 0 {
			at %= len(seg) + 1
			if end := at + len(tail); end > len(seg) {
				seg = append(seg, make([]byte, end-len(seg))...)
			}
			copy(seg[at:], tail)
		} else {
			cut := uint64(-(at + 1)) % uint64(len(seg)+1)
			seg = append(seg[:len(seg)-int(cut)], tail...)
		}
		dir := t.TempDir()
		if snap > 0 {
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteSnapshot(Snapshot{Shard: 0, Seq: uint64(snap), State: map[int64]int64{}}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var above []Record // the records Replay may deliver
		for _, r := range written {
			if r.Shard != 0 || r.Seq > uint64(snap) {
				above = append(above, r)
			}
		}

		st, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want nil or ErrCorrupt", err)
			}
			return
		}
		defer st.Close()
		var got []Record
		err = st.Replay(func(r Record) error { got = append(got, keepRecord(r)); return nil })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay = %v, want nil or ErrCorrupt", err)
			}
			return
		}
		if len(got) > len(above) || !sameRecords(got, above[:len(got)]) {
			t.Fatalf("recovered %d records that are not a prefix of the %d written above the snapshot", len(got), len(above))
		}
	})
}

// FuzzSnapshotFile writes three valid snapshots with WriteSnapshot, once —
// shard 0 at seq 5 and at seq 10, shard 1 at seq 7 — then, per input,
// copies them into a fresh directory, damages shard 0's newest file with
// fuzzed bytes (at as in FuzzLogSegment) and reopens the store. Snapshots
// must not panic, and for each shard it must return exactly what was
// written at some seq of that shard, or nothing: a damaged file may cost a
// fallback to the older snapshot, never a different state. Shard 1's file
// is not touched, so it must come back whole.
func FuzzSnapshotFile(f *testing.F) {
	newer := make(map[int64]int64)
	for i := int64(0); i < 40; i++ {
		newer[i*i*i*977-30_000] = i<<(i%60) ^ -i // keys and values of every varint width
	}
	written := []Snapshot{
		{Shard: 0, Seq: 5, State: map[int64]int64{1: 1, -2: 2}},
		{Shard: 0, Seq: 10, State: newer},
		{Shard: 1, Seq: 7, State: map[int64]int64{9: 9}},
	}
	template := f.TempDir()
	st, err := Open(template)
	if err != nil {
		f.Fatal(err)
	}
	for _, snap := range written {
		// The store keeps the map it is handed; keep our own copy.
		snap.State = maps.Clone(snap.State)
		if err := st.WriteSnapshot(snap); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	files := make(map[string][]byte)
	entries, err := os.ReadDir(template)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(template, e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	target := fmt.Sprintf("snap-%010d-%016d", 0, 10)
	if files[target] == nil {
		f.Fatalf("no %s among %d files written", target, len(files))
	}

	f.Add([]byte{}, -1)
	f.Add([]byte{0xff}, 20)
	f.Add([]byte("WFS1"), 0)
	f.Add([]byte{0, 0, 0, 0}, -5)
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff}, 16)
	f.Fuzz(func(t *testing.T, tail []byte, at int) {
		dir := t.TempDir()
		for name, content := range files {
			b := content
			if name == target {
				b = append([]byte(nil), content...)
				if at >= 0 {
					at %= len(b) + 1
					if end := at + len(tail); end > len(b) {
						b = append(b, make([]byte, end-len(b))...)
					}
					copy(b[at:], tail)
				} else {
					cut := uint64(-(at + 1)) % uint64(len(b)+1)
					b = append(b[:len(b)-int(cut)], tail...)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open = %v after damaging a snapshot file", err)
		}
		defer st.Close()
		got, err := st.Snapshots()
		if err != nil {
			t.Fatalf("Snapshots = %v", err)
		}
		for shard, snap := range got {
			if snap.Shard != shard {
				t.Fatalf("shard %d's snapshot names shard %d", shard, snap.Shard)
			}
			ok := false
			for _, w := range written {
				ok = ok || (w.Shard == shard && w.Seq == snap.Seq && maps.Equal(w.State, snap.State))
			}
			if !ok {
				t.Fatalf("shard %d: snapshot at seq %d with %d pairs was never written", shard, snap.Seq, len(snap.State))
			}
		}
		if snap, ok := got[1]; !ok || snap.Seq != 7 {
			t.Fatalf("shard 1's undamaged snapshot came back as %+v, %v", snap, ok)
		}
	})
}
