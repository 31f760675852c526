package logstore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"waitfree/internal/seqspec"
)

// frameSpan is where one group's frame landed: its segment and the byte
// range [start, end) of the frame in it.
type frameSpan struct {
	seg        uint64
	start, end int
}

// crashImage is one directory a crash can leave: its files, and how many
// of the driven groups a recovery from it must hold (acked) and may hold
// (attempted).
type crashImage struct {
	name             string
	files            map[string][]byte
	acked, attempted int
}

// TestCrashImages is the crash-image enumerator for the segment log. It
// drives random groups through a real store across two rotations,
// recording where each acked frame landed, then builds every crash image
// the commit protocol can leave around two frames — the final one, and the
// first frame of the newest segment — from the real files:
//
//   - the frame truncated to every byte length (length 0 is also the image
//     of a crash during Open's own repair once the cut reached the disk;
//     every other length is the image where it did not);
//   - the frame at full length with each 8-byte-aligned range zeroed: the
//     size metadata persisted, those data pages did not;
//   - a crash during the rotation that opened the newest segment: a tmp-*
//     orphan holding none, part or all of the header (the name never became
//     durable), or the header-only segment under its name.
//
// For every image, Open + Replay must recover a prefix of the attempted
// groups that holds every acked one — acked ⊆ recovered ⊆ attempted, with
// dense per-shard seqs, since the groups' seqs are dense in commit order. A
// second Open must find nothing to repair and change no file, and one more
// append must survive another reopen.
func TestCrashImages(t *testing.T) {
	master := t.TempDir()
	st, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var (
		recs    []Record   // every record, in commit order
		cuts    = []int{0} // cuts[g]: records in groups 0..g-1
		spans   []frameSpan
		openers []int // the group that opened each segment
		seqs    = map[uint32]uint64{}
	)
	record := func(fat bool) Record {
		sh := uint32(rng.Intn(4))
		seqs[sh]++
		op := seqspec.Op{Kind: "put", Args: []int64{rng.Int63n(1000), rng.Int63() - rng.Int63()}}
		if fat {
			// A long kind fills the 1 MiB segments in a few hundred groups.
			kind := make([]byte, 200+rng.Intn(56))
			rng.Read(kind)
			op.Kind = string(kind)
		}
		return Record{Shard: sh, Seq: seqs[sh], Op: op}
	}
	group := func(max int, fat bool) []Record {
		g := make([]Record, 1+rng.Intn(max))
		for i := range g {
			g[i] = record(fat && rng.Intn(4) != 0)
		}
		return g
	}
	commit := func(g []Record) {
		if err := st.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		sp := frameSpan{seg: st.active, start: len(logMagic), end: st.synced}
		st.mu.Unlock()
		if n := len(spans); n > 0 && spans[n-1].seg == sp.seg {
			sp.start = spans[n-1].end
		} else {
			openers = append(openers, len(spans))
		}
		spans = append(spans, sp)
		recs = append(recs, g...)
		cuts = append(cuts, len(recs))
	}
	// Random groups until the second rotation; a group that will open a
	// segment is kept small, so that its frame can be torn at every byte.
	for len(openers) < 3 {
		st.mu.Lock()
		full := st.synced >= segmentBytes
		st.mu.Unlock()
		if len(spans) == 0 || full {
			commit(group(2, false))
		} else {
			commit(group(128, true))
		}
	}
	for i := 0; i < 3; i++ {
		commit(group(16, true))
	}
	commit(group(2, false))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs := map[uint64][]byte{}
	entries, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		idx := uint64(i + 1)
		if e.Name() != segName(idx) {
			t.Fatalf("driven store holds %s, want only segments", e.Name())
		}
		if segs[idx], err = os.ReadFile(filepath.Join(master, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if len(segs) != 3 {
		t.Fatalf("driven store rotated into %d segments, want 3", len(segs))
	}

	// after returns the files on disk once group g's frame is durable.
	after := func(g int) map[string][]byte {
		files := map[string][]byte{}
		sp := spans[g]
		for idx := uint64(1); idx < sp.seg; idx++ {
			files[segName(idx)] = segs[idx]
		}
		files[segName(sp.seg)] = segs[sp.seg][:sp.end]
		return files
	}
	var images []crashImage
	for _, target := range []int{openers[2], len(spans) - 1} {
		sp := spans[target]
		full := segs[sp.seg][:sp.end]
		torn := func(name string, content []byte) {
			files := after(target - 1)
			files[segName(sp.seg)] = content
			images = append(images, crashImage{name: fmt.Sprintf("group %d: %s", target, name), files: files, acked: target, attempted: target + 1})
		}
		for n := sp.start; n <= sp.end; n++ {
			torn(fmt.Sprintf("frame cut to %d of %d bytes", n-sp.start, sp.end-sp.start), full[:n])
		}
		bounds := []int{sp.start}
		for b := sp.start/8*8 + 8; b < sp.end; b += 8 {
			bounds = append(bounds, b)
		}
		bounds = append(bounds, sp.end)
		for i, lo := range bounds {
			for _, hi := range bounds[i+1:] {
				zeroed := bytes.Clone(full)
				clear(zeroed[lo:hi])
				torn(fmt.Sprintf("bytes [%d,%d) zeroed", lo, hi), zeroed)
			}
		}
	}
	opener := openers[2]
	for _, header := range []string{"", "WF", "WFL2"} {
		files := after(opener - 1)
		files["tmp-1234"] = []byte(header)
		images = append(images, crashImage{name: fmt.Sprintf("rotation orphan %q", header), files: files, acked: opener, attempted: opener})
	}

	base := t.TempDir()
	for i, img := range images {
		dir := filepath.Join(base, fmt.Sprint(i))
		if err := checkCrashImage(dir, img, recs, cuts); err != nil {
			t.Fatalf("crash image %s: %v", img.name, err)
		}
		os.RemoveAll(dir)
	}
	t.Logf("%d crash images across %d groups in %d segments recovered", len(images), len(spans), len(segs))
}

// checkCrashImage writes img to dir and checks one recovery from it.
func checkCrashImage(dir string, img crashImage, recs []Record, cuts []int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var newest string
	orphans := 0
	for name, b := range img.files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
		if strings.HasPrefix(name, "tmp-") {
			orphans++
		} else if name > newest {
			newest = name
		}
	}

	st, got, err := openReplay(dir)
	if err != nil {
		return err
	}
	stats := st.Stats()
	repaired, err := readFiles(dir)
	st.Close()
	if err != nil {
		return err
	}
	k := sort.SearchInts(cuts, len(got))
	if k < img.acked || k > img.attempted || cuts[k] != len(got) || !sameRecords(got, recs[:len(got)]) {
		return fmt.Errorf("recovered %d records, want the first %d..%d groups' %d..%d", len(got), img.acked, img.attempted, cuts[img.acked], cuts[img.attempted])
	}
	if stats.Orphans != int64(orphans) {
		return fmt.Errorf("Orphans = %d, want %d", stats.Orphans, orphans)
	}
	if torn := int64(len(img.files[newest]) - len(repaired[newest])); stats.TornBytes != torn {
		return fmt.Errorf("TornBytes = %d, but the newest segment shrank by %d", stats.TornBytes, torn)
	}

	// A second Open finds nothing to repair and changes no file.
	st, again, err := openReplay(dir)
	if err != nil {
		return fmt.Errorf("second open: %w", err)
	}
	if s := st.Stats(); s.TornBytes != 0 || s.Orphans != 0 {
		st.Close()
		return fmt.Errorf("second open repaired again: %+v", s)
	}
	files, err := readFiles(dir)
	if err != nil {
		st.Close()
		return err
	}
	if !sameRecords(again, got) || !maps.EqualFunc(files, repaired, bytes.Equal) {
		st.Close()
		return fmt.Errorf("second open recovered %d records (first %d) or changed the files", len(again), len(got))
	}
	// One more append survives another reopen.
	var last uint64
	for _, r := range got {
		if r.Shard == 0 {
			last = r.Seq
		}
	}
	extra := Record{Shard: 0, Seq: last + 1, Op: put(-1, int64(len(got)))}
	err = st.AppendBatch([]Record{extra})
	st.Close()
	if err != nil {
		return fmt.Errorf("append after recovery: %w", err)
	}
	st, final, err := openReplay(dir)
	if err != nil {
		return fmt.Errorf("reopen after append: %w", err)
	}
	st.Close()
	if !sameRecords(final, append(got, extra)) {
		return fmt.Errorf("reopen after append recovered %d records, want %d", len(final), len(got)+1)
	}
	return nil
}

// openReplay opens dir and returns the store with every record it replays.
// A record's Args are valid only during its Replay callback, so each kept
// record gets a copy.
func openReplay(dir string) (*Store, []Record, error) {
	st, err := Open(dir)
	if err != nil {
		return nil, nil, err
	}
	var got []Record
	if err := st.Replay(func(r Record) error { got = append(got, keepRecord(r)); return nil }); err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, got, nil
}

func readFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// keepRecord returns r with its own copy of the Args Replay lent it.
func keepRecord(r Record) Record {
	r.Op.Args = slices.Clone(r.Op.Args)
	return r
}

func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Shard == y.Shard && x.Seq == y.Seq && x.Op.Kind == y.Op.Kind && slices.Equal(x.Op.Args, y.Op.Args)
	})
}
