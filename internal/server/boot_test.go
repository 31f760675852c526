package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"waitfree/internal/logstore"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
)

// bootImage is a store writeBootImage wrote, and the state it holds.
type bootImage struct {
	dir   string
	model map[int64]int64 // every shard's state after every record
}

// writeBootImage writes a store of shards shards with keys keys each and
// closes it. Shard sh's records put its keys round-robin: seqs 1..covered
// are covered by a snapshot at seq covered, and tail more records
// overwrite the same keys above it. Every record lands in the log, so
// Replay validates and passes over the covered ones.
func writeBootImage(tb testing.TB, shards, keys, covered, tail int) bootImage {
	tb.Helper()
	img := bootImage{dir: tb.TempDir(), model: map[int64]int64{}}
	st, err := logstore.Open(img.dir)
	if err != nil {
		tb.Fatal(err)
	}
	byShard := make([][]int64, shards)
	for k, full := int64(0), 0; full < shards; k++ {
		if sh := shard.KeyShard(k, shards); len(byShard[sh]) < keys {
			byShard[sh] = append(byShard[sh], k)
			if len(byShard[sh]) == keys {
				full++
			}
		}
	}
	states := make([]map[int64]int64, shards)
	for sh := range states {
		states[sh] = map[int64]int64{}
	}
	var recs []logstore.Record
	for seq := 1; seq <= covered+tail; seq++ {
		for sh, ks := range byShard {
			k, v := ks[seq%keys], int64(seq*shards+sh)
			recs = append(recs, logstore.Record{Shard: uint32(sh), Seq: uint64(seq), Op: seqspec.Op{Kind: "put", Args: []int64{k, v}}})
			img.model[k] = v
			if seq <= covered {
				states[sh][k] = v
			}
		}
		if len(recs) >= 256 || seq == covered+tail {
			if err := st.AppendBatch(recs); err != nil {
				tb.Fatal(err)
			}
			recs = recs[:0]
		}
		if seq == covered {
			for sh, state := range states {
				if err := st.WriteSnapshot(logstore.Snapshot{Shard: uint32(sh), Seq: uint64(covered), State: state}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return img
}

// getRecovery fetches the boot report from s's stats listener.
func getRecovery(t *testing.T, s *Server) map[string]int64 {
	t.Helper()
	c, err := net.Dial("tcp", s.StatsAddr().String())
	if err != nil {
		t.Fatalf("dial stats: %v", err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /recovery HTTP/1.0\r\n\r\n")
	resp, err := io.ReadAll(c)
	_, js, _ := strings.Cut(string(resp), "\r\n\r\n")
	var boot map[string]int64
	if err != nil || !strings.Contains(string(resp), "200 OK") || json.Unmarshal([]byte(js), &boot) != nil {
		t.Fatalf("GET /recovery: %v\n%s", err, resp)
	}
	return boot
}

// TestServerBootReportsRejectedSnapshot: /recovery counts the covered
// records boot validated and passed over, and a snapshot file that fails
// its checksum. With shard 0's only snapshot damaged, boot replays the
// records it had covered instead, and every key still reads back.
func TestServerBootReportsRejectedSnapshot(t *testing.T) {
	const shards, keys, covered, tail = 4, 16, 40, 24
	img := writeBootImage(t, shards, keys, covered, tail)
	boot := func() map[string]int64 {
		t.Helper()
		s := startServer(t, Config{Shards: shards, Procs: 4, Dir: img.dir, StatsAddr: "127.0.0.1:0"})
		cl, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { cl.Close() }) // before the server's Close, which waits for every connection
		for k, want := range img.model {
			if got, err := cl.Get(k); err != nil || got != want {
				t.Fatalf("after boot get(%d) = (%d, %v), want %d", k, got, err, want)
			}
		}
		cl.Close()
		report := getRecovery(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return report
	}
	want := map[string]int64{"snapshots_loaded": shards, "snapshots_rejected": 0, "records_replayed": shards * tail, "records_skipped": shards * covered}
	if got := boot(); !reportHas(got, want) {
		t.Fatalf("/recovery = %v, want %v", got, want)
	}

	path := filepath.Join(img.dir, fmt.Sprintf("snap-%010d-%016d", 0, covered))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	want = map[string]int64{"snapshots_loaded": shards - 1, "snapshots_rejected": 1, "records_replayed": shards*tail + covered, "records_skipped": (shards - 1) * covered}
	if got := boot(); !reportHas(got, want) {
		t.Fatalf("with shard 0's snapshot damaged, /recovery = %v, want %v", got, want)
	}
}

// reportHas reports whether report holds every entry of want.
func reportHas(report, want map[string]int64) bool {
	for k, v := range want {
		if got, ok := report[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// TestRecoverShardsAllocs pins boot's cost per record at 0 allocations:
// two stores with the same snapshots, one with 4x the log records above
// them, must boot with the same allocation count. The records overwrite
// the snapshots' keys, so once the first round has copied every path into
// the shard's window, every later record edits in place; the records'
// arguments decode into Replay's reused buffer and go straight into the
// window.
func TestRecoverShardsAllocs(t *testing.T) {
	const shards, keys, covered = 4, 64, 64
	allocs := func(tail int) float64 {
		img := writeBootImage(t, shards, keys, covered, tail)
		st, err := logstore.Open(img.dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if n := st.Stats().LogFiles; n != 1 {
			t.Fatalf("%d segments, want 1", n)
		}
		return testing.AllocsPerRun(20, func() {
			_, _, replayed, err := recoverShards(st, shards)
			if err != nil || replayed != shards*tail {
				t.Fatalf("recoverShards = %d records, %v; want %d", replayed, err, shards*tail)
			}
		})
	}
	short, long := allocs(keys), allocs(4*keys)
	// Two allocations of slack for a sync.Pool refill after a GC; one per
	// record would be 768.
	if long > short+2 {
		t.Errorf("boot allocates %.0f times over %d records, %.0f over %d: want no growth", short, shards*keys, long, 4*shards*keys)
	}
}

// TestRecoverShardsClosesWindows: boot's edit windows are closed before
// the states reach the shards. A state left inside one would let a put on
// a clone of it edit in place the nodes the window built, which the state
// and every other clone share: so a put on a clone of each recovered state
// must leave the state unchanged.
func TestRecoverShardsClosesWindows(t *testing.T) {
	const shards = 4
	img := writeBootImage(t, shards, 16, 8, 8)
	st, err := logstore.Open(img.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	boots, _, _, err := recoverShards(st, shards)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range img.model {
		state := boots[shard.KeyShard(k, shards)].state
		state.Clone().Apply(seqspec.Op{Kind: "put", Args: []int64{k, v + 1}})
		if got := state.Apply(seqspec.Op{Kind: "get", Args: []int64{k}}); got != v {
			t.Fatalf("get(%d) = %d after a put on a clone, want %d", k, got, v)
		}
	}
}

// BenchmarkRecoverShards times boot's store half, Open plus
// recoverShards, on a store shaped like the durable-put benchmark's crash
// image: 8 shards of 2048 keys, each with a snapshot at seq 4096 and 2048
// records above it, all of them still in the log.
func BenchmarkRecoverShards(b *testing.B) {
	const shards = 8
	img := writeBootImage(b, shards, 2048, 4096, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := logstore.Open(img.dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := recoverShards(st, shards); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
}
