package synth

import (
	"testing"

	"waitfree/internal/check"
	"waitfree/internal/model"
)

// casObject builds a single compare-and-swap register with no plain
// read/write, menu operands "install 0" and "install 1".
func casObject() model.Object {
	fn := model.RMWFn{
		Name: "compare-and-swap",
		Apply: func(cur, a, b model.Value) model.Value {
			if cur == a {
				return b
			}
			return cur
		},
		Operands: [][2]model.Value{{model.None, 0}, {model.None, 1}},
	}
	return model.NewMemory("cas-reg", []model.Value{model.None},
		model.WithRMW(fn), model.WithoutRW())
}

// pinNodes asserts a search visited exactly the recorded number of nodes: a
// change to the searcher's data structures must explore the same
// configurations in the same order.
func pinNodes(t *testing.T, res Result, want int64) {
	t.Helper()
	if res.Nodes != want {
		t.Errorf("search visited %d nodes, want %d", res.Nodes, want)
	}
}

// TestSynthFindsCASProtocol is the positive control: the synthesizer must
// discover the Theorem 7 protocol shape (CAS your input, decide what is in
// the register) within depth 1 for two processes.
func TestSynthFindsCASProtocol(t *testing.T) {
	res := Search(casObject(), Params{Procs: 2, Depth: 1})
	if !res.Found {
		t.Fatalf("expected to find a CAS protocol: %s", res)
	}
	pinNodes(t, res, 459)
	t.Logf("found: %s\n%s", res, FormatStrategy(res.Strategy))

	// Independently re-verify the synthesized protocol with the checker
	// under all four input assignments.
	sp := &StrategyProtocol{ProtoName: "synth-cas", N: 2, Strategy: res.Strategy}
	for bits := 0; bits < 4; bits++ {
		inputs := []model.Value{model.Value(bits & 1), model.Value((bits >> 1) & 1)}
		cr := check.Consensus(sp, casObject(), inputs, check.Options{})
		if !cr.OK {
			t.Fatalf("synthesized protocol fails recheck on inputs %v: %v", inputs, cr.Violation)
		}
	}
}

// TestSynthFindsAugQueueProtocol: second positive control. With an
// augmented queue, "enqueue your input, peek, decide" is a depth-2
// protocol; the searcher must discover it. (At n=3 the search space no
// longer closes in reasonable time — the exhaustive model checker covers
// the n-process protocol instead.)
func TestSynthFindsAugQueueProtocol(t *testing.T) {
	q := model.NewAugmentedQueue("augqueue", nil)
	res := Search(q, Params{Procs: 2, Depth: 2, PreferOps: true})
	if !res.Found {
		t.Fatalf("expected to find an augmented-queue protocol: %s", res)
	}
	pinNodes(t, res, 841_292)
	t.Logf("found: %s\n%s", res, FormatStrategy(res.Strategy))
}

// TestSynthNoRegisterConsensus is the Theorem 2 evidence: no wait-free
// two-process binary consensus protocol over atomic read/write registers
// exists within the searched bounds.
func TestSynthNoRegisterConsensus(t *testing.T) {
	tests := []struct {
		name  string
		regs  int
		depth int
		nodes int64
	}{
		{name: "1reg-depth3", regs: 1, depth: 3, nodes: 43_693_913},
		{name: "2reg-depth2", regs: 2, depth: 2, nodes: 2_336_149},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if testing.Short() && tt.depth >= 3 {
				t.Skip("minute-scale search; skipped in -short mode")
			}
			init := make([]model.Value, tt.regs)
			mem := model.NewMemory("rw", init)
			res := Search(mem, Params{Procs: 2, Depth: tt.depth})
			if res.Found {
				t.Fatalf("Theorem 2 contradicted?! found:\n%s", FormatStrategy(res.Strategy))
			}
			if !res.Complete {
				t.Fatalf("search did not complete: %s", res)
			}
			pinNodes(t, res, tt.nodes)
			t.Logf("%s: %s (menu %d actions)", tt.name, res, res.MenuSize)
		})
	}
}

// TestSynthNoQueue3Consensus is the Theorem 11 evidence: no wait-free
// three-process binary consensus protocol over a FIFO queue within bounds.
func TestSynthNoQueue3Consensus(t *testing.T) {
	if testing.Short() {
		t.Skip("minute-scale search; skipped in -short mode")
	}
	q := model.NewQueue("queue", nil)
	res := Search(q, Params{Procs: 3, Depth: 2})
	if res.Found {
		t.Fatalf("Theorem 11 contradicted?! found:\n%s", FormatStrategy(res.Strategy))
	}
	if !res.Complete {
		t.Fatalf("search did not complete: %s", res)
	}
	pinNodes(t, res, 42_221_171)
	t.Logf("%s", res)
}

// TestSynthNoInterferingRMW3Consensus is the Theorem 6 / Corollary 8
// evidence: interfering read-modify-write primitives cannot solve
// three-process consensus within bounds. The combined-family search space
// does not close in reasonable time, so each family is searched separately;
// the any-combination claim is Theorem 6 itself, whose interference
// hypothesis internal/interfere verifies exactly for the full families.
func TestSynthNoInterferingRMW3Consensus(t *testing.T) {
	swap := model.SwapRMW
	swap.Operands = [][2]model.Value{{0, model.None}, {1, model.None}}
	faa := model.FetchAndAdd
	faa.Operands = [][2]model.Value{{1, model.None}}
	tests := []struct {
		name  string
		fns   []model.RMWFn
		nodes int64
	}{
		{name: "test-and-set", fns: []model.RMWFn{model.TestAndSet}, nodes: 18_795},
		{name: "swap", fns: []model.RMWFn{swap}, nodes: 3_056_616},
		{name: "fetch-and-add", fns: []model.RMWFn{faa}, nodes: 10_697_617},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mem := model.NewMemory("rmw-reg", []model.Value{0},
				model.WithRMW(tt.fns...), model.WithoutRW())
			res := Search(mem, Params{Procs: 3, Depth: 2})
			if res.Found {
				t.Fatalf("Theorem 6 contradicted?! found:\n%s", FormatStrategy(res.Strategy))
			}
			if !res.Complete {
				t.Fatalf("search did not complete: %s", res)
			}
			pinNodes(t, res, tt.nodes)
			t.Logf("%s: %s", tt.name, res)
		})
	}
}

// TestSynthNoFIFOChannel2Consensus is the Section 3.1 message-passing
// evidence (after Dolev, Dwork and Stockmeyer): two processes connected by
// point-to-point FIFO channels cannot reach wait-free consensus.
func TestSynthNoFIFOChannel2Consensus(t *testing.T) {
	ch := model.NewChannels("p2p", 2)
	res := Search(ch, Params{Procs: 2, Depth: 2})
	if res.Found {
		t.Fatalf("DDS result contradicted?! found:\n%s", FormatStrategy(res.Strategy))
	}
	if !res.Complete {
		t.Fatalf("search did not complete: %s", res)
	}
	pinNodes(t, res, 226_710)
	t.Logf("%s", res)
}
