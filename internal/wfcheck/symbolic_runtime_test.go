package wfcheck

import (
	"sync"
	"testing"

	waitfree "waitfree"
	"waitfree/internal/seqspec"
)

// loadFacadeCerts loads the real module from its root and returns the
// symbolic certificates of the façade's operations.
func loadFacadeCerts(t *testing.T) []OpCert {
	t.Helper()
	loader, root := loadFixture(t, "../../../..")
	prog := NewProgram(loader)
	ops, diags := analyzeSymbolic(prog, root)
	for _, d := range diags {
		t.Errorf("symbolic certification diagnostic: %s: %s", d.Pos, d.Message)
	}
	return ops
}

// TestFacadeCertsComplete pins the tentpole acceptance criterion: every
// exported operation reachable from the façade gets a finite symbolic step
// certificate — no symbound diagnostics, no unbounded certificates.
func TestFacadeCertsComplete(t *testing.T) {
	ops := loadFacadeCerts(t)
	if len(ops) < 40 {
		t.Fatalf("façade closure certified only %d operations, want the full surface (>= 40)", len(ops))
	}
	for _, c := range ops {
		if c.Status == BoundUnbounded {
			t.Errorf("%s has no finite bound: %s", c.Op, c.Basis)
		}
	}
	// The headline certificates: the universal object's operation carries
	// the Section 4.1 O(n) replay term plus lower-order terms, and the
	// sharded front end multiplies it by S.
	byOp := map[string]OpCert{}
	for _, c := range ops {
		byOp[c.Op] = c
	}
	invoke, ok := byOp["core.Universal.Invoke"]
	if !ok {
		t.Fatal("no certificate for core.Universal.Invoke")
	}
	if got := invoke.Poly["n"]; got < 1 {
		t.Errorf("Invoke bound %s lacks the Section 4.1 n replay term", invoke.Bound)
	}
	sharded, ok := byOp["shard.Sharded.Invoke"]
	if !ok {
		t.Fatal("no certificate for shard.Sharded.Invoke")
	}
	if got := sharded.Poly["S·n"]; got < 1 {
		t.Errorf("sharded Invoke bound %s lacks the S·n cross-shard term", sharded.Bound)
	}
}

// TestCertifiedBoundCoversRuntime is the static/dynamic cross-check: it
// instantiates the certified Invoke bound at a concrete configuration
// (n processes, GC period g) and asserts that the
// universal.op_steps histogram — the replay walk plus applies plus constant
// overhead an operation actually performed — never exceeded the evaluated
// certificate during a concurrent workload.
func TestCertifiedBoundCoversRuntime(t *testing.T) {
	const (
		procs   = 4
		gcEvery = 8
		opsPer  = 300
	)
	ops := loadFacadeCerts(t)
	var invoke *OpCert
	for i := range ops {
		if ops[i].Op == "core.Universal.Invoke" {
			invoke = &ops[i]
		}
	}
	if invoke == nil {
		t.Fatal("no certificate for core.Universal.Invoke")
	}
	params := map[string]int64{
		"n": procs, "g": gcEvery,
		"B": 4096, "C": 512, "S": 1, "M": 16,
	}
	bound, err := invoke.Poly.Eval(params)
	if err != nil {
		t.Fatalf("certificate %s does not evaluate at the experiment's parameters: %v", invoke.Bound, err)
	}
	if bound <= 0 {
		t.Fatalf("certificate %s evaluated to %d", invoke.Bound, bound)
	}

	fac := waitfree.NewConsensusFetchAndCons(procs, func() waitfree.Consensus {
		return waitfree.NewCASConsensus(procs)
	})
	u := waitfree.New(seqspec.KV{}, fac, procs, waitfree.WithLogGC(gcEvery))
	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			h := u.Handle(pid)
			for i := 0; i < opsPer; i++ {
				key := int64(i % 7)
				h.Invoke(seqspec.Op{Kind: "put", Args: []int64{key, int64(pid*opsPer + i)}})
				h.Invoke(seqspec.Op{Kind: "get", Args: []int64{key}})
			}
		}(pid)
	}
	wg.Wait()

	var observed int64 = -1
	for _, s := range u.Metrics().Snapshot() {
		if s.Name == "universal.op_steps" {
			observed = s.Max
		}
	}
	if observed < 0 {
		t.Fatal("universal.op_steps histogram missing from the metrics snapshot")
	}
	if observed > bound {
		t.Errorf("observed per-operation steps max %d exceeds certified bound %s = %d at n=%d g=%d",
			observed, invoke.Bound, bound, procs, gcEvery)
	}
	t.Logf("certified %s = %d steps at n=%d g=%d; observed max %d",
		invoke.Bound, bound, procs, gcEvery, observed)
}
