package wfcheck

import (
	"sync"
	"testing"

	waitfree "waitfree"
	"waitfree/internal/seqspec"
)

// loadFacadeCerts returns the symbolic certificates of the real module's
// façade operations.
func loadFacadeCerts(t *testing.T) []OpCert {
	t.Helper()
	res := treeResult(t)
	for _, d := range analyzerDiags(res, "symbound") {
		t.Errorf("symbolic certification diagnostic: %s: %s", d.Pos, d.Message)
	}
	return res.Ops
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
// instantiates the certified Invoke bound at a concrete configuration (n
// processes, GC period g) and asserts that the universal.op_steps
// histogram — the replay walk plus applies plus constant overhead an
// operation actually performed — never exceeded the evaluated certificate
// during a concurrent workload. It logs the observed max beside the
// certificate, so the slack it leaves is on record.
func TestCertifiedBoundCoversRuntime(t *testing.T) {
	const (
		procs   = 4
		gcEvery = 8
		opsPer  = 300
	)
	names := []string{"core.Universal.Invoke"}
	certs := map[string]*OpCert{}
	ops := loadFacadeCerts(t)
	for i := range ops {
		certs[ops[i].Op] = &ops[i]
	}
	params := map[string]int64{
		"n": procs, "g": gcEvery,
		"B": 4096, "S": 1, "M": 16,
	}
	bounds := map[string]int64{}
	for _, name := range names {
		cert := certs[name]
		if cert == nil {
			t.Fatalf("no certificate for %s", name)
		}
		bound, err := cert.Poly.Eval(params)
		if err != nil {
			t.Fatalf("certificate %s does not evaluate at the experiment's parameters: %v", cert.Bound, err)
		}
		if bound <= 0 {
			t.Fatalf("certificate %s evaluated to %d", cert.Bound, bound)
		}
		bounds[name] = bound
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
	for _, name := range names {
		cert, bound := certs[name], bounds[name]
		if observed > bound {
			t.Errorf("%s: observed per-operation steps max %d exceeds certified bound %s = %d at n=%d g=%d",
				name, observed, cert.Bound, bound, procs, gcEvery)
		}
		t.Logf("%s: certified %s = %d steps at n=%d g=%d; observed max %d (headroom %.0f×)",
			name, cert.Bound, bound, procs, gcEvery, observed, float64(bound)/float64(observed))
	}
}
