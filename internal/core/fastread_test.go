package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

// TestFastReadLinearizable: concurrent readers and writers on a Universal,
// over both fetch-and-cons constructions; read-only operations ride the
// Observe fast path (no cons) and the whole history must still linearize.
// The linearization point of a fast read is the Observe load of a decided
// list. Run under -race this also exercises the frozen-state cache: cache
// hits apply read-only ops to a shared state concurrently.
func TestFastReadLinearizable(t *testing.T) {
	const n = 4
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Queue{}, seqspec.Bank{Accounts: 4}}
	for name, mk := range facMakers(n) {
		for _, obj := range objects {
			t.Run(name+"/"+obj.Name(), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					u := NewUniversal(obj, mk(), n)
					var rec linearize.Recorder
					var wg sync.WaitGroup
					for p := 0; p < n; p++ {
						p := p
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(trial*n + p)))
							for i := 0; i < 6; i++ {
								// Half the pids lean heavily on reads so fast
								// reads interleave densely with writes.
								op := fastReadMixOp(obj.Name(), rng, p%2 == 0)
								ts := rec.Invoke()
								resp := u.Invoke(p, op)
								rec.Complete(p, op, resp, ts)
							}
						}()
					}
					wg.Wait()
					if u.FastReads() == 0 {
						t.Fatal("workload exercised no fast reads")
					}
					h := rec.History()
					if res := linearize.Check(obj, h); !res.OK {
						for _, e := range h {
							t.Logf("  %s", e)
						}
						t.Fatalf("trial %d: history with fast reads not linearizable", trial)
					}
				}
			})
		}
	}
}

// fastReadMixOp draws a read-heavy or write-heavy operation for obj.
func fastReadMixOp(object string, rng *rand.Rand, readHeavy bool) seqspec.Op {
	read := rng.Intn(100) < 25
	if readHeavy {
		read = rng.Intn(100) < 75
	}
	switch object {
	case "kv":
		k := rng.Int63n(4)
		if read {
			return seqspec.Op{Kind: "get", Args: []int64{k}}
		}
		return seqspec.Op{Kind: "put", Args: []int64{k, rng.Int63n(50)}}
	case "queue":
		if read {
			return seqspec.Op{Kind: "peek"}
		}
		if rng.Intn(2) == 0 {
			return seqspec.Op{Kind: "enq", Args: []int64{rng.Int63n(50)}}
		}
		return seqspec.Op{Kind: "deq"}
	case "bank":
		a, b := rng.Int63n(4), rng.Int63n(4)
		if read {
			return seqspec.Op{Kind: "balance", Args: []int64{a}}
		}
		if rng.Intn(2) == 0 {
			return seqspec.Op{Kind: "deposit", Args: []int64{a, 1 + rng.Int63n(5)}}
		}
		return seqspec.Op{Kind: "transfer", Args: []int64{a, b, 1}}
	}
	panic("unknown object " + object)
}

// TestFastReadMatchesWritePath: with a fixed operation sequence, responses
// from the fast path equal those from the pre-fast-path construction
// (WithoutFastReads) — the differential check that classification and
// replay agree with cons-order ground truth.
func TestFastReadMatchesWritePath(t *testing.T) {
	objects := []seqspec.Object{seqspec.KV{}, seqspec.Counter{}, seqspec.Bank{Accounts: 4}}
	for _, obj := range objects {
		t.Run(obj.Name(), func(t *testing.T) {
			fast := NewUniversal(obj, NewSwapFAC(), 1)
			slow := NewUniversal(obj, NewSwapFAC(), 1, WithoutFastReads())
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				var op seqspec.Op
				if obj.Name() == "counter" {
					op = seqspec.Op{Kind: "inc"}
					if rng.Intn(2) == 0 {
						op = seqspec.Op{Kind: "get"}
					}
				} else {
					op = fastReadMixOp(obj.Name(), rng, i%2 == 0)
				}
				if got, want := fast.Invoke(0, op), slow.Invoke(0, op); got != want {
					t.Fatalf("op %d %s: fast %d, write-path %d", i, op, got, want)
				}
			}
			if fast.FastReads() == 0 || slow.FastReads() != 0 {
				t.Fatalf("fast-read counters: fast=%d slow=%d", fast.FastReads(), slow.FastReads())
			}
		})
	}
}

// TestFastReadLeavesLogAlone: reads consume no cons — the log length after
// a burst of reads equals the number of writes.
func TestFastReadLeavesLogAlone(t *testing.T) {
	fac := NewSwapFAC()
	u := NewUniversal(seqspec.KV{}, fac, 2)
	for k := int64(0); k < 10; k++ {
		u.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{k, k}})
	}
	for i := 0; i < 1000; i++ {
		u.Invoke(1, seqspec.Op{Kind: "get", Args: []int64{int64(i % 10)}})
	}
	if head := fac.Head(); head.Len != 10 {
		t.Errorf("log grew to %d entries under reads, want 10", head.Len)
	}
	if got := u.FastReads(); got != 1000 {
		t.Errorf("FastReads = %d, want 1000", got)
	}
}

// TestStateIsDecidedPrefix: State races concurrent writers (meant for
// -race). Every state it returns must equal a replay of a prefix of the
// final decided list that holds every write completed before the call and
// only writes started before it returned, successive calls must not move
// back along the list, and mutating a returned state must not show in
// later reads.
func TestStateIsDecidedPrefix(t *testing.T) {
	const n, per = 4, 150
	for name, mk := range facMakers(n) {
		t.Run(name, func(t *testing.T) {
			fac := mk()
			u := NewUniversal(seqspec.KV{}, fac, n)
			var started, done atomic.Int64
			var wg sync.WaitGroup
			for p := 1; p < n; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for i := 0; i < per; i++ {
						op := seqspec.Op{Kind: "put", Args: []int64{rng.Int63n(8), int64(p*1000 + i)}}
						if rng.Intn(3) == 0 {
							op = seqspec.Op{Kind: "del", Args: []int64{rng.Int63n(8)}}
						}
						started.Add(1)
						u.Invoke(p, op)
						done.Add(1)
					}
				}()
			}
			type seen struct {
				key    string
				lo, hi int64
			}
			var views []seen
			stop := make(chan struct{})
			go func() { wg.Wait(); close(stop) }()
			for running := true; running; {
				select {
				case <-stop:
					running = false
				default:
				}
				lo := done.Load()
				st := u.State(0)
				views = append(views, seen{st.Key(), lo, started.Load()})
				st.Apply(seqspec.Op{Kind: "put", Args: []int64{-1, 1}})
				st.Apply(seqspec.Op{Kind: "del", Args: []int64{0}})
				if got := u.Invoke(0, seqspec.Op{Kind: "get", Args: []int64{-1}}); got != seqspec.Empty {
					t.Fatalf("a put on a returned state shows in a later read: get(-1) = %d", got)
				}
			}

			// at[key] lists the prefix lengths of the decided list whose
			// replay renders as key, ascending.
			entries := Entries(fac.Observe())
			if len(entries) != (n-1)*per {
				t.Fatalf("decided list has %d entries, want %d", len(entries), (n-1)*per)
			}
			at := map[string][]int64{}
			model := seqspec.KV{}.Init()
			at[model.Key()] = []int64{0}
			for i := len(entries) - 1; i >= 0; i-- {
				model.Apply(entries[i].Op)
				at[model.Key()] = append(at[model.Key()], int64(len(entries)-i))
			}
			prev := int64(0)
			for i, v := range views {
				lo := max(prev, v.lo)
				j := sort.Search(len(at[v.key]), func(j int) bool { return at[v.key][j] >= lo })
				if j == len(at[v.key]) || at[v.key][j] > v.hi {
					t.Fatalf("State call %d returned %q: no decided prefix of length %d..%d replays to it (prefixes with that state: %v)",
						i, v.key, lo, v.hi, at[v.key])
				}
				prev = at[v.key][j]
			}
			if got, want := u.State(0).Key(), model.Key(); got != want {
				t.Fatalf("final State = %q, want %q", got, want)
			}
			t.Logf("%d State calls against %d writes", len(views), len(entries))
		})
	}
}
