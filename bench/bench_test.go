package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
)

func TestQuantileHelpers(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(vals, 0); got != 1 {
		t.Errorf("quantile 0 = %v, want 1", got)
	}
	if got := quantile(vals, 1); got != 10 {
		t.Errorf("quantile 1 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(vals); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v, want 1, 4", q1, q3)
	}
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("cv = %v, want 0.4", got)
	}
	if median(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0, not NaN")
	}
	if got := latQuantileNS([]int64{10, 20, 30, 40, 50}, 0.5); got != 30 {
		t.Errorf("latQuantileNS = %v, want 30", got)
	}
}

func streamHash(w *workload, seed uint64) uint64 {
	o := newOracle(w.keys)
	var h uint64
	for phase := phaseWindow0; phase < phaseWindow0+2; phase++ {
		streams := make([]*stream, lanes)
		for l := range streams {
			streams[l] = &stream{lane: l}
			generate(streams[l], o, w.mix, newRNG(seed, phase, l), 500)
		}
		h = hashStreams(h, streams)
	}
	return h
}

func TestSameSeedSameOpStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if a, b := streamHash(w, 7), streamHash(w, 7); a != b {
			t.Errorf("%s: seed 7 gave op-stream hashes %x and %x", w.name, a, b)
		}
		if a, b := streamHash(w, 7), streamHash(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v is outside 0..0.25", m.name, m.bound)
		}
	}
}

// TestBenchmarkJSONMatches keeps ../BENCHMARK.json equal to what the
// program declares and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("BENCHMARK.json differs from `bench -spec`; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}
}

// tiny shrinks a workload so its whole run takes a fraction of a second.
func tiny(w workload) *workload {
	w.keys, w.windowOps, w.warmOps, w.floorOps, w.recovers = 64, 600, 200, 50, 1
	if w.net {
		w.shards = 2
	}
	return &w
}

func runTiny(t *testing.T, w *workload, traced bool, corrupt func(int64) int64) *result {
	t.Helper()
	sc, err := newScratch()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.cleanup()
	r := newRunner(w, 3, 3, traced, sc)
	r.corrupt, r.outDir = corrupt, t.TempDir()
	if err := r.run(); err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r.res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		t.Run(w.name, func(t *testing.T) {
			res := runTiny(t, w, false, nil)
			if res.failed != 0 || len(res.problems) != 0 {
				t.Errorf("failed %d of %d, problems %v", res.failed, res.attempted, res.problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.name]; !ok || !(v > 0) {
					t.Errorf("%s = %v (measured: %v), want a positive value", m.name, v, ok)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"durable-ryw", "lib-contended"} {
		w := tiny(*findWorkload(name))
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, w, true, nil)
			if res.failed != 0 || len(res.problems) != 0 {
				t.Errorf("failed %d of %d, problems %v", res.failed, res.attempted, res.problems)
			}
			for _, m := range perLayer {
				v, ok := res.metrics[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (measured: %v)", m.name, v, ok)
				}
			}
			if _, err := os.Stat(res.info["trace_file"]); err != nil {
				t.Errorf("trace file: %v", err)
			}
			if fsyncs := res.metrics["logstore.fsyncs_per_op"]; (fsyncs > 0) != w.durable {
				t.Errorf("logstore.fsyncs_per_op = %v on a workload with durable=%v", fsyncs, w.durable)
			}
		})
	}
}

// A reply that disagrees with the oracle must be counted, on the network
// path and on the library path.
func TestCorruptedReplyRaisesFailFrac(t *testing.T) {
	for _, name := range []string{"net-read-mostly", "lib-contended"} {
		w := tiny(*findWorkload(name))
		var n atomic.Int64 // replies arrive on one goroutine per lane
		res := runTiny(t, w, false, func(v int64) int64 {
			if n.Add(1) == 1000 {
				return v + 1
			}
			return v
		})
		if res.failed == 0 {
			t.Errorf("%s: one corrupted reply in %d went unnoticed", name, res.attempted)
		}
	}
}

func TestSweepStale(t *testing.T) {
	base := t.TempDir()
	const deadPid = "4194000" // above the kernel's default pid_max
	stale := filepath.Join(base, scratchPrefix+deadPid)
	if err := os.MkdirAll(filepath.Join(stale, "store-1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sweepStale(base); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale scratch directory survived the sweep: %v", err)
	}
	// One above the cap is not ours to delete: refuse to start.
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(stale, "big"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(scratchCap + 1); err != nil { // sparse: takes no space
		t.Fatal(err)
	}
	f.Close()
	if err := sweepStale(base); err == nil {
		t.Error("a stale directory above the cap was swept silently")
	}
}
