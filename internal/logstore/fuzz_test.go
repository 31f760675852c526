package logstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"waitfree/internal/seqspec"
)

// FuzzLogSegment writes a valid segment from fuzzed groups, damages its
// tail with fuzzed bytes, then opens and replays it. Neither may panic, and
// the outcome must be ErrCorrupt or a prefix of the records written —
// differential against what was written, like FuzzDecodeStream. Each byte
// of groups is one group: its low three bits are the record count less
// one, the next two the shard. at >= 0 overwrites the segment in place from
// offset at (mod its length + 1), extending it if tail runs past the end;
// at < 0 cuts -at-1 bytes (mod its length + 1) off the end and appends tail.
func FuzzLogSegment(f *testing.F) {
	f.Add([]byte{0x00, 0x0a, 0x13}, []byte{}, -1)
	f.Add([]byte{0x00, 0x0a, 0x13}, []byte{}, -6)
	f.Add([]byte{0x07, 0x1f}, []byte{0xff}, 40)
	f.Add([]byte{0x01}, []byte("garbage after the last frame"), -1)
	f.Add([]byte{0x02, 0x02}, []byte("WFL1"), 0)
	f.Fuzz(func(t *testing.T, groups, tail []byte, at int) {
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
			seg, _ = appendFrame(seg, []appendReq{{recs: recs}})
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
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
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
		err = st.Replay(func(r Record) error { got = append(got, r); return nil })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay = %v, want nil or ErrCorrupt", err)
			}
			return
		}
		if len(got) > len(written) || !sameRecords(got, written[:len(got)]) {
			t.Fatalf("recovered %d records that are not a prefix of the %d written", len(got), len(written))
		}
	})
}
