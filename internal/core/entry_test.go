package core

import (
	"testing"
	"unsafe"

	"waitfree/internal/seqspec"
)

// TestEntrySize pins the entry's layout at 120 bytes, in the 128-byte size
// class. The entry owns its whole announcement (its list cell and up to two
// argument words) beside its snapshot slot, and carries no response; a
// field added or moved carelessly would push every write's one allocation
// into the next size class (144 bytes).
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 120 {
		t.Errorf("Entry is %d bytes, want 120", got)
	}
}

// TestEntryOwnsArgs: the decided log keeps the words an operation announced,
// not its caller's buffer. Each write path is driven with one reused
// argument buffer that the caller overwrites after every call returns; the
// log's entries must still hold the announced words and the state must be
// the one they build. The bank case covers an op wider than the entry's two
// inline words.
func TestEntryOwnsArgs(t *testing.T) {
	const per = 2 // ops a round
	objects := []struct {
		obj  seqspec.Object
		kind string
		args func(i int64) []int64
		read seqspec.Op
	}{
		{seqspec.KV{}, "put", func(i int64) []int64 { return []int64{i, 10 * i} }, seqspec.Op{Kind: "len"}},
		{seqspec.Bank{Accounts: 2}, "transfer", func(i int64) []int64 { return []int64{i % 2, 1 - i%2, 1} }, seqspec.Op{Kind: "total"}},
	}
	for _, o := range objects {
		t.Run("invoke/"+o.obj.Name(), func(t *testing.T) {
			fac := NewSwapFAC()
			u := NewUniversal(o.obj, fac, 1)
			ref := o.obj.Init()
			var announced []string // newest first, like Entries
			for i := 0; i < 8; i++ {
				// per ops a round, each from its own caller-owned buffer.
				ops := make([]seqspec.Op, per)
				for j := range ops {
					ops[j] = seqspec.Op{Kind: o.kind, Args: o.args(int64(i*per + j))}
					announced = append([]string{ops[j].String()}, announced...)
					ref.Apply(ops[j])
				}
				for _, op := range ops {
					u.Invoke(0, op)
				}
				for _, op := range ops {
					for j := range op.Args {
						op.Args[j] = -7 // the caller reuses its buffers
					}
				}
			}
			entries := Entries(fac.Head())
			if len(entries) != len(announced) {
				t.Fatalf("log holds %d entries, want %d", len(entries), len(announced))
			}
			for i, e := range entries {
				if got := e.Op.String(); got != announced[i] {
					t.Fatalf("entry %d holds %s, announced %s: it aliases the caller's buffer", i, got, announced[i])
				}
			}
			if got, want := u.State(0).Key(), ref.Key(); got != want {
				t.Errorf("state %s, want %s", got, want)
			}
			if got, want := u.Invoke(0, o.read), ref.Apply(o.read); got != want {
				t.Errorf("%s = %d, want %d", o.read, got, want)
			}
		})
	}
}

// TestSettledReadAllocs: a get from a settled head — its entry carries its
// snapshot, the state after the whole observed list — answers from that
// snapshot: no allocation, no replay, no read-cache entry. It counts as a
// fast-read hit and records the head's index in the reader's GC register.
func TestSettledReadAllocs(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.KV{}, fac, 1, WithLogGC(1))
	for k := int64(0); k < 64; k++ {
		u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, 10 * k}})
	}
	get := seqspec.Op{Kind: "get", Args: []int64{7}}
	hits, misses := u.stats.fastHits.Load(), u.stats.fastMisses.Load()
	replays, _, _ := u.ReplayStats()
	const runs = 100
	if a := testing.AllocsPerRun(runs, func() {
		if u.Invoke(0, get) != 70 {
			t.Fatal("settled get missed the put")
		}
	}); a != 0 {
		t.Errorf("a get on a settled head allocates %.0f times, want 0", a)
	}
	if got := u.stats.fastHits.Load() - hits; got != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d fast-read hits, want %d", got, runs+1)
	}
	if got := u.stats.fastMisses.Load(); got != misses {
		t.Errorf("settled reads missed %d times", got-misses)
	}
	if got, _, _ := u.ReplayStats(); got != replays {
		t.Errorf("settled reads replayed %d times", got-replays)
	}
	if u.lastRead.Load() != nil {
		t.Error("a settled read filled the read cache")
	}
	if got, want := u.gc.observed[0].v.Load(), int64(fac.Head().Len); got != want {
		t.Errorf("reader's GC register %d, want the settled head's index %d", got, want)
	}
}
