package regconstruct

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"waitfree/internal/linearize"
	"waitfree/internal/seqspec"
)

// TestSafeBitSequential: a safe bit is perfectly well-behaved without
// overlap.
func TestSafeBitSequential(t *testing.T) {
	var b SafeBit
	for _, v := range []bool{true, false, true, true, false} {
		b.WriteBit(v)
		if got := b.ReadBit(); got != v {
			t.Fatalf("read = %v after write %v", got, v)
		}
	}
}

// TestSafeBitCanMisbehave: during a write of the SAME value, a safe bit may
// return the other value — the defect that regularity repairs.
func TestSafeBitCanMisbehave(t *testing.T) {
	var b SafeBit
	b.WriteBit(true)
	b.writing.Store(1) // freeze a write window open
	saw := map[bool]bool{}
	for i := 0; i < 10; i++ {
		saw[b.ReadBit()] = true
	}
	b.writing.Store(0)
	if !saw[false] {
		t.Error("safe bit never returned the adversarial value during overlap")
	}
}

// TestRegularBitNoPhantom: a regular bit built over a safe bit never
// returns a phantom value while the writer rewrites the SAME value — the
// defining difference from safe. The writer hammers true; every read must
// be true.
func TestRegularBitNoPhantom(t *testing.T) {
	reg := NewRegularBit(&SafeBit{})
	reg.WriteBit(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.WriteBit(true) // same value: no write window may open
			}
		}
	}()
	for i := 0; i < 100000; i++ {
		if !reg.ReadBit() {
			close(stop)
			wg.Wait()
			t.Fatal("regular bit returned a phantom value")
		}
	}
	close(stop)
	wg.Wait()
}

// TestRegularKSequential: the unary construction behaves like a register
// sequentially, across the full ladder from safe bits.
func TestRegularKSequential(t *testing.T) {
	r := NewRegularKFromSafe(8, 3)
	if got := r.Read(); got != 3 {
		t.Fatalf("init read = %d", got)
	}
	for _, v := range []int64{0, 7, 2, 2, 5, 0} {
		r.Write(v)
		if got := r.Read(); got != v {
			t.Fatalf("read = %d after write %d", got, v)
		}
	}
}

// TestRegularKRegularity: a concurrent reader must always return the value
// of an overlapping or the latest preceding write. With a writer sweeping
// v, v+1, ... and intervals recorded, each read's value must come from a
// write whose interval is not wholly after the read, nor superseded before
// the read began.
func TestRegularKRegularity(t *testing.T) {
	const k = 16
	r := NewRegularKFromSafe(k, 0)
	type span struct{ val, start, end int64 }
	var clock struct {
		sync.Mutex
		t int64
	}
	tick := func() int64 {
		clock.Lock()
		defer clock.Unlock()
		clock.t++
		return clock.t
	}
	var writes []span
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v = (v + 1) % k
			s := tick()
			r.Write(v)
			e := tick()
			mu.Lock()
			writes = append(writes, span{val: v, start: s, end: e})
			mu.Unlock()
			runtime.Gosched()
		}
	}()
	for i := 0; i < 4000; i++ {
		s := tick()
		v := r.Read()
		e := tick()
		mu.Lock()
		// The writer is unpaced, so keep the record bounded: spans are in
		// end order, and one that ended before this read began can matter to
		// this or any later read only as the last-before candidate, i.e. if
		// it is the newest such span.
		for len(writes) > 1 && writes[1].end < s {
			writes = writes[1:]
		}
		ws := append([]span(nil), writes...)
		mu.Unlock()
		// Admissible values: any write overlapping [s,e], plus the last
		// write that completed before s (or the initial 0 if none), plus —
		// because appends happen after the write returns — any write that
		// might still be unrecorded (values being written concurrently are
		// covered by the overlap rule once recorded; to stay sound we only
		// flag a violation when the read value is provably stale: some
		// write of a DIFFERENT value completed before the read started and
		// no admissible write has this value).
		admissible := map[int64]bool{}
		lastBefore := int64(0)
		lastBeforeEnd := int64(-1)
		for _, w := range ws {
			if w.end < s && w.end > lastBeforeEnd {
				lastBefore, lastBeforeEnd = w.val, w.end
			}
			if w.end >= s && w.start <= e {
				admissible[w.val] = true
			}
		}
		admissible[lastBefore] = true
		// Unrecorded in-flight write: the writer may have started a write
		// whose record is not yet appended; its value is the successor of
		// the newest recorded one (of the initial 0 before any is recorded).
		newest := int64(0)
		if len(ws) > 0 {
			newest = ws[len(ws)-1].val
		}
		admissible[(newest+1)%k] = true
		if !admissible[v] {
			close(stop)
			wg.Wait()
			t.Fatalf("read %d: no admissible write (last-before=%d)", v, lastBefore)
		}
	}
	close(stop)
	wg.Wait()
}

// recordReg drives a register through the linearizability recorder.
func checkRegisterLinearizable(t *testing.T, h []linearize.Event) {
	t.Helper()
	if res := linearize.Check(seqspec.Register{}, h); !res.OK {
		for _, e := range h {
			t.Logf("  %s", e)
		}
		t.Fatal("register history not linearizable")
	}
}

// TestAtomicSWSRLinearizable: one writer, one reader, recorded history must
// linearize against the register spec. (A plain SimRegular would fail this
// occasionally via new/old inversion; the sequence numbers repair it.)
func TestAtomicSWSRLinearizable(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := NewAtomicSWSRSim(0)
		var rec linearize.Recorder
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 12; i++ {
				op := seqspec.Op{Kind: "write", Args: []int64{int64(i)}}
				ts := rec.Invoke()
				r.Write(int64(i))
				rec.Complete(0, op, 0, ts) // register write returns old value
				runtime.Gosched()
			}
		}()
		for i := 0; i < 12; i++ {
			op := seqspec.Op{Kind: "read"}
			ts := rec.Invoke()
			v := r.Read()
			rec.Complete(1, op, v, ts)
		}
		wg.Wait()
		// The seqspec register write returns the old value, which the
		// construction does not provide; rebuild responses from the
		// witnessing order instead by checking reads only: replace write
		// responses with a spec that ignores them.
		h := rec.History()
		checkRegisterHistoryReadsOnly(t, h)
	}
}

// checkRegisterHistoryReadsOnly validates histories where write responses
// are unknown, using a write-ack register spec.
func checkRegisterHistoryReadsOnly(t *testing.T, h []linearize.Event) {
	t.Helper()
	if res := linearize.Check(ackRegister{}, h); !res.OK {
		for _, e := range h {
			t.Logf("  %s", e)
		}
		t.Fatal("history not linearizable")
	}
}

// ackRegister is a register whose write returns 0 (acknowledge only).
type ackRegister struct{}

func (ackRegister) Name() string { return "ack-register" }

func (ackRegister) Init() seqspec.State { s := ackRegState(0); return &s }

func (ackRegister) ReadOnly(op seqspec.Op) bool { return op.Kind == "read" }

type ackRegState int64

func (s *ackRegState) Apply(op seqspec.Op) int64 {
	switch op.Kind {
	case "read":
		return int64(*s)
	case "write":
		*s = ackRegState(op.Arg(0))
		return 0
	}
	panic("ackRegister: unknown op " + op.Kind)
}

func (s *ackRegState) Clone() seqspec.State { c := *s; return &c }

func (s *ackRegState) Key() string { return strconv.FormatInt(int64(*s), 10) }

// TestAtomicSWMRLinearizable: one writer, three readers.
func TestAtomicSWMRLinearizable(t *testing.T) {
	const readers = 3
	for trial := 0; trial < 20; trial++ {
		r := NewAtomicSWMR(readers, 0)
		var rec linearize.Recorder
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 10; i++ {
				op := seqspec.Op{Kind: "write", Args: []int64{int64(i)}}
				ts := rec.Invoke()
				r.Write(int64(i))
				rec.Complete(0, op, 0, ts)
				runtime.Gosched()
			}
		}()
		for rd := 0; rd < readers; rd++ {
			rd := rd
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 6; i++ {
					op := seqspec.Op{Kind: "read"}
					ts := rec.Invoke()
					v := r.ReadAt(rd)
					rec.Complete(1+rd, op, v, ts)
				}
			}()
		}
		wg.Wait()
		checkRegisterHistoryReadsOnly(t, rec.History())
	}
}

// TestAtomicMRMWLinearizable: four processes, all reading and writing.
func TestAtomicMRMWLinearizable(t *testing.T) {
	const n = 4
	for trial := 0; trial < 20; trial++ {
		r := NewAtomicMRMW(n, 0)
		var rec linearize.Recorder
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if (p+i)%2 == 0 {
						v := int64(100*p + i + 1)
						op := seqspec.Op{Kind: "write", Args: []int64{v}}
						ts := rec.Invoke()
						r.WriteAt(p, v)
						rec.Complete(p, op, 0, ts)
					} else {
						op := seqspec.Op{Kind: "read"}
						ts := rec.Invoke()
						v := r.ReadAt(p)
						rec.Complete(p, op, v, ts)
					}
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		checkRegisterHistoryReadsOnly(t, rec.History())
	}
}

// TestMRMWSequential exercises the multi-writer register single-threaded
// across writers.
func TestMRMWSequential(t *testing.T) {
	r := NewAtomicMRMW(3, 7)
	for p := 0; p < 3; p++ {
		if got := r.ReadAt(p); got != 7 {
			t.Fatalf("initial read at %d = %d", p, got)
		}
	}
	r.WriteAt(1, 42)
	if got := r.ReadAt(2); got != 42 {
		t.Fatalf("read = %d", got)
	}
	r.WriteAt(0, 13) // later write by a lower-id writer must still win
	if got := r.ReadAt(1); got != 13 {
		t.Fatalf("read = %d, want 13", got)
	}
}
