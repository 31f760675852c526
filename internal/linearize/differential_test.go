package linearize

import (
	"math/rand"
	"testing"

	"waitfree/internal/seqspec"
)

// naiveCheck decides linearizability by brute force: try every permutation
// of the events, accept if one respects real-time order and the sequential
// specification. It is exponential and exists only to differentially test
// the memoized checker.
func naiveCheck(obj seqspec.Object, h []Event) bool {
	n := len(h)
	perm := make([]int, n)
	used := make([]bool, n)
	pred := predecessors(h)
	var rec func(k int, state seqspec.State) bool
	rec = func(k int, state seqspec.State) bool {
		if k == n {
			return true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// Real-time: every unused event must not strictly precede h[i].
			ok := true
			for j := 0; j < n; j++ {
				if j != i && !used[j] && h[j].Return < h[i].Invoke {
					ok = false
					break
				}
			}
			if !ok || pred[i] >= 0 && !used[pred[i]] {
				continue
			}
			next := state.Clone()
			if next.Apply(h[i].Op) != h[i].Resp {
				continue
			}
			used[i] = true
			perm[k] = i
			if rec(k+1, next) {
				return true
			}
			used[i] = false
		}
		return false
	}
	return rec(0, obj.Init())
}

// randomHistory builds a small history with random overlap structure and
// random (frequently wrong) responses, so verdicts split both ways.
func randomHistory(rng *rand.Rand, obj string, events int) []Event {
	var h []Event
	clock := int64(0)
	var openEnds []int64
	for i := 0; i < events; i++ {
		clock++
		inv := clock
		// Random overlap: the return may land before or after other events.
		clock += int64(1 + rng.Intn(4))
		ret := clock
		var op seqspec.Op
		switch obj {
		case "register":
			if rng.Intn(2) == 0 {
				op = seqspec.Op{Kind: "read"}
			} else {
				op = seqspec.Op{Kind: "write", Args: []int64{int64(rng.Intn(3))}}
			}
		case "queue":
			if rng.Intn(2) == 0 {
				op = seqspec.Op{Kind: "enq", Args: []int64{int64(rng.Intn(3))}}
			} else {
				op = seqspec.Op{Kind: "deq"}
			}
		}
		resp := int64(rng.Intn(3))
		if rng.Intn(3) == 0 {
			resp = seqspec.Empty
		}
		if op.Kind == "enq" || op.Kind == "write" {
			resp = 0
		}
		h = append(h, Event{Pid: i % 3, Op: op, Resp: resp, Invoke: inv, Return: ret})
		openEnds = append(openEnds, ret)
	}
	// Shuffle intervals a little: swap some invoke times to create overlap.
	for i := 0; i+1 < len(h); i += 2 {
		if rng.Intn(2) == 0 {
			h[i].Return, h[i+1].Invoke = h[i+1].Invoke+1, h[i].Return-1
			if h[i].Return < h[i].Invoke {
				h[i].Return = h[i].Invoke + 1
			}
			if h[i+1].Return < h[i+1].Invoke {
				h[i+1].Return = h[i+1].Invoke + 1
			}
		}
	}
	return h
}

// TestDifferentialRegister: the memoized checker and the brute-force
// checker agree on thousands of random register histories.
func TestDifferentialRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reg := seqspec.Register{}
	agreeYes, agreeNo := 0, 0
	for trial := 0; trial < 3000; trial++ {
		h := randomHistory(rng, "register", 2+rng.Intn(5))
		fast := Check(reg, h).OK
		slow := naiveCheck(reg, h)
		if fast != slow {
			for _, e := range h {
				t.Logf("  %s", e)
			}
			t.Fatalf("trial %d: Check=%v naive=%v", trial, fast, slow)
		}
		if fast {
			agreeYes++
		} else {
			agreeNo++
		}
	}
	t.Logf("agreed on %d linearizable and %d non-linearizable histories", agreeYes, agreeNo)
	if agreeYes == 0 || agreeNo == 0 {
		t.Error("differential corpus did not cover both verdicts")
	}
}

// TestDifferentialQueue: same for queue histories.
func TestDifferentialQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := seqspec.Queue{}
	agreeYes, agreeNo := 0, 0
	for trial := 0; trial < 3000; trial++ {
		h := randomHistory(rng, "queue", 2+rng.Intn(5))
		fast := Check(q, h).OK
		slow := naiveCheck(q, h)
		if fast != slow {
			for _, e := range h {
				t.Logf("  %s", e)
			}
			t.Fatalf("trial %d: Check=%v naive=%v", trial, fast, slow)
		}
		if fast {
			agreeYes++
		} else {
			agreeNo++
		}
	}
	t.Logf("agreed on %d linearizable and %d non-linearizable histories", agreeYes, agreeNo)
	if agreeYes == 0 || agreeNo == 0 {
		t.Error("differential corpus did not cover both verdicts")
	}
}

// withProgramOrder gives about half of h's events an After edge to an
// earlier-invoked event whose Invoke stamp no other event shares.
func withProgramOrder(rng *rand.Rand, h []Event) []Event {
	stamps := make(map[int64]int, len(h))
	for _, e := range h {
		stamps[e.Invoke]++
	}
	for i := range h {
		j := rng.Intn(len(h))
		if rng.Intn(2) == 0 && h[j].Invoke < h[i].Invoke && stamps[h[j].Invoke] == 1 {
			h[i].After = h[j].Invoke
		}
	}
	return h
}

// TestDifferentialProgramOrder: the two checkers also agree once events
// carry program-order predecessors, and some edge changes a verdict.
func TestDifferentialProgramOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	objs := map[string]seqspec.Object{"register": seqspec.Register{}, "queue": seqspec.Queue{}}
	flipped := 0
	for trial := 0; trial < 3000; trial++ {
		name := []string{"register", "queue"}[trial%2]
		h := withProgramOrder(rng, randomHistory(rng, name, 2+rng.Intn(5)))
		fast := Check(objs[name], h).OK
		if slow := naiveCheck(objs[name], h); fast != slow {
			for _, e := range h {
				t.Logf("  %s", e)
			}
			t.Fatalf("trial %d: Check=%v naive=%v", trial, fast, slow)
		}
		bare := append([]Event(nil), h...)
		for i := range bare {
			bare[i].After = 0
		}
		if Check(objs[name], bare).OK != fast {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("no program-order edge changed a verdict: the corpus does not exercise After")
	}
}

// TestWitnessOrderIsValid: when the checker says yes, its witness order
// must replay to the recorded responses and respect real time.
func TestWitnessOrderIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	q := seqspec.Queue{}
	validated := 0
	for trial := 0; trial < 2000; trial++ {
		h := randomHistory(rng, "queue", 2+rng.Intn(5))
		res := Check(q, h)
		if !res.OK {
			continue
		}
		validated++
		// The checker sorts events by invocation internally; reconstruct
		// that view to interpret the witness indices.
		sorted := append([]Event(nil), h...)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j].Invoke < sorted[i].Invoke {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		state := q.Init()
		for k, idx := range res.Order {
			e := sorted[idx]
			if state.Apply(e.Op) != e.Resp {
				t.Fatalf("trial %d: witness replay diverges at position %d", trial, k)
			}
			for _, later := range res.Order[k+1:] {
				if sorted[later].Return < e.Invoke {
					t.Fatalf("trial %d: witness violates real-time order", trial)
				}
			}
		}
	}
	if validated == 0 {
		t.Error("no linearizable histories to validate witnesses on")
	}
}
