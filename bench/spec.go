package main

import "encoding/json"

// This file is the benchmark's contract in code: the four workloads with
// their fixed op counts, and the metric tables that ../BENCHMARK.json
// declares (a self-test keeps the two equal).

// Load shape shared by every workload, sized for a 2-vCPU box: two
// connections (two invoking goroutines for the library workload), each a
// closed loop with a window of depth requests in flight.
const (
	lanes = 2
	depth = 32
	// maxProcs caps GOMAXPROCS so a bigger box measures the same program.
	maxProcs = 4
	// setups is how many times a run sets the system up; setup_s is their
	// median, so one cold start does not decide it.
	setups = 3
	// nominalSeconds is the --seconds value the window counts were sized
	// for: windowsFor(nominalSeconds) windows of windowOps ops fill it.
	nominalSeconds = 12
)

// windowsFor turns --seconds into a window count. Windows have a fixed op
// count (never adaptive), so only their number follows the requested time.
func windowsFor(seconds int) int {
	n := seconds * 5 / 4
	if n < 3 {
		n = 3
	}
	return n
}

type mixKind int

const (
	mixReadMostly mixKind = iota // 90 % get of any key, 10 % put of an own key
	mixPutOnly                   // 100 % put of an own key
	mixRYW                       // put k, get k, get k' (own keys), a len every 64th op
	mixHalf                      // 50 % put of an own key, 50 % get of any key
)

// workload is one set of inputs. The op counts are constants sized once on
// the reference box (a window is ~0.8 s there); they are never adapted at
// run time, so two runs of one seed do identical work.
type workload struct {
	name, why string
	net       bool // over loopback TCP through internal/server; else the bare library
	durable   bool // Config.Dir set: applier, group commit, snapshots, compaction
	shards    int
	keys      int
	mix       mixKind
	windowOps int // ops per measurement window, all lanes together
	warmOps   int // warm-up ops after the preload, inside setup_s
	floorOps  int // depth-1 ops of the unloaded-latency phase
	recovers  int // back-to-back recoveries; recovery_s is their lower quartile
}

var workloads = []workload{
	{
		name: "net-read-mostly",
		why:  "in-memory server, 4096 keys, 90% get / 10% put: wire, reader/writer split and the read fast path work; logstore and the applier do nothing",
		net:  true, shards: 8, keys: 4096, mix: mixReadMostly,
		windowOps: 150_000, warmOps: 200_000, floorOps: 20_000, recovers: 15,
	},
	{
		name: "durable-put",
		why:  "store on, 16384 keys, 100% put: applier queue, group commit, InvokeBatch, snapshot and compaction work; the read fast path does nothing",
		net:  true, durable: true, shards: 8, keys: 16384, mix: mixPutOnly,
		windowOps: 18_000, warmOps: 16_000, floorOps: 4_000, recovers: 2,
	},
	{
		name: "durable-ryw",
		why:  "store on, 4096 keys, put k / get k / get k' with a len every 64th op: routed reads and barriers beside group-committed writes",
		net:  true, durable: true, shards: 8, keys: 4096, mix: mixRYW,
		windowOps: 33_000, warmOps: 54_000, floorOps: 12_000, recovers: 3,
	},
	{
		name:   "lib-contended",
		why:    "no sockets, no store: 2 goroutines on one Universal, 2048 keys, 50% put / 50% get: fetch-and-cons, helping, replay, clone and log GC do all the work",
		shards: 1, keys: 2048, mix: mixHalf,
		windowOps: 7_000, warmOps: 10_000, floorOps: 8_000, recovers: 15,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metric is one declared metric. better is "lower" or "higher"; bound is
// the share of the parent's median by which an end-to-end metric may get
// worse (per-layer metrics have none).
type metric struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a caller of the system sees; reported with --trace 0.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"tput_ops_per_s", "1/s", "higher", 0.25},
	{"lat_loaded_p50_us", "us", "lower", 0.25},
	{"lat_unloaded_mean_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"allocs_per_op", "1", "lower", 0.03},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer is reported with --trace 1, one group per layer.
var perLayer = []metric{
	{"wire.encode_req_ns", "ns", "lower", 0},
	{"wire.decode_req_ns", "ns", "lower", 0},
	{"wire.resp_roundtrip_ns", "ns", "lower", 0},
	{"wire.allocs_per_op", "1", "lower", 0},
	{"wire.req_bytes", "B", "lower", 0},
	{"wire.resp_bytes", "B", "lower", 0},

	{"server.frames_per_flush", "1", "higher", 0},
	{"server.snapshots_per_kop", "1", "lower", 0},
	{"server.ops_refused", "count", "lower", 0},
	{"server.lease_miss", "count", "lower", 0},
	{"server.boot_us_per_record", "us", "lower", 0},
	{"server.self_us_per_op", "us", "lower", 0},

	{"shard.invoke_read_ns", "ns", "lower", 0},
	{"shard.invoke_write_ns", "ns", "lower", 0},
	{"shard.invoke_batch_ns_per_op", "ns", "lower", 0},
	{"shard.imbalance_pct", "%", "lower", 0},

	{"core.fast_read_hit_frac", "1", "higher", 0},
	{"core.helped_frac", "1", "higher", 0},
	{"core.batch_len_mean", "1", "higher", 0},
	{"core.replay_len_mean", "1", "lower", 0},
	{"core.replay_len_max", "count", "lower", 0},
	{"core.cons_ops_per_write", "1", "lower", 0},
	{"core.snapshot_stores_per_write", "1", "lower", 0},
	{"core.state_clone_ns", "ns", "lower", 0},
	{"core.retired_per_write", "1", "higher", 0},
	{"core.log_len_max", "count", "lower", 0},
	{"core.gc_scan_len_mean", "1", "lower", 0},
	{"core.op_steps_max", "count", "lower", 0},
	{"core.op_steps_bound", "count", "lower", 0},
	{"core.bound_headroom", "1", "higher", 0},

	{"logstore.fsyncs_per_op", "1", "lower", 0},
	{"logstore.records_per_batch", "1", "higher", 0},
	{"logstore.bytes_per_op", "B", "lower", 0},
	{"logstore.live_files_max", "count", "lower", 0},
	{"logstore.compacted_files", "count", "higher", 0},
	{"logstore.append_batch_us", "us", "lower", 0},
	{"logstore.snapshot_write_us", "us", "lower", 0},
	{"logstore.compact_us", "us", "lower", 0},
	{"logstore.replay_us_per_record", "us", "lower", 0},
	{"logstore.snapshots_load_us", "us", "lower", 0},

	{"wfstats.record_ns", "ns", "lower", 0},
	{"wfstats.overhead_frac", "1", "lower", 0},

	{"client.self_cpu_us_per_op", "us", "lower", 0},
	{"client.lat_loaded_p99_us", "us", "lower", 0},
	{"client.lat_loaded_p999_us", "us", "lower", 0},
	{"client.lat_samples", "count", "higher", 0},
	{"client.ref_ms", "ms", "lower", 0},
	{"client.window_cv", "1", "lower", 0},
	{"client.raw_tput_ops_per_s", "1/s", "higher", 0},
	{"client.raw_cpu_us_per_op", "us", "lower", 0},
	{"client.raw_lat_loaded_p50_us", "us", "lower", 0},

	{"runtime.gc_cycles_per_kop", "1", "lower", 0},
	{"runtime.gc_cpu_frac", "1", "lower", 0},
	{"runtime.heap_retained_mb", "MB", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},

	{"sweep.p50_us_at_half", "us", "lower", 0},
	{"sweep.p99_us_at_half", "us", "lower", 0},
	{"sweep.gen_late_p99_us", "us", "lower", 0},

	{"trace.layers_sum_us_per_op", "us", "lower", 0},
	{"trace.coverage_frac", "1", "higher", 0},
	{"trace.overhead_frac", "1", "lower", 0},
	{"trace.spans", "count", "higher", 0},
}

// benchmarkJSON renders the declaration the driver reads; ../BENCHMARK.json
// is this output, and a self-test fails when the two drift apart.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: nominalSeconds}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return append(out, '\n')
}
