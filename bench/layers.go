package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"waitfree"
	"waitfree/internal/core"
	"waitfree/internal/logstore"
	"waitfree/internal/seqspec"
	"waitfree/internal/shard"
	"waitfree/internal/wfcheck"
	"waitfree/internal/wfstats"
	"waitfree/internal/wire"
)

// This file is the traced run's per-layer half: counters read from the
// live system after the windows, and a layer replay that drives the
// workload's own op stream straight into each layer's public entry points
// with a span around every call.

const (
	replayOps     = 16384 // ops of window 0 pushed through each layer
	spanOps       = 2048  // of those, how many get a span in the trace file
	clientSpanCap = 2048  // client request spans kept per lane
	// Nominal batch sizes for the layer replay on workloads whose live run
	// shows none (no applier drains, no group commits).
	nominalDrain = 8
	nominalGroup = 16
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters sets the per-layer metrics that are counts taken from the
// live system over the windows.
func (r *runner) layerCounters(regB, regA map[string]wfstats.Sample, stB, stA logstore.Stats, liveFilesMax, logLenMax int64) {
	res := r.res
	delta := func(name string) float64 { return float64(regA[name].Value - regB[name].Value) }
	histMean := func(name string) float64 {
		return ratio(float64(regA[name].Sum-regB[name].Sum), float64(regA[name].Count-regB[name].Count))
	}
	ops, puts := float64(r.ops), float64(r.puts)
	res.set("server.frames_per_flush", ratio(delta("server.writer_frames"), delta("server.writer_flushes")))
	res.set("server.snapshots_per_kop", ratio(delta("server.snapshots"), ops)*1000)
	res.set("server.ops_refused", float64(regA["server.ops_refused"].Value))
	res.set("server.lease_miss", float64(regA["server.lease_miss"].Value))
	res.set("shard.imbalance_pct", float64(regA["shard.imbalance_pct"].Value))

	hits, misses := delta("universal.fast_read_hit"), delta("universal.fast_read_miss")
	res.set("core.fast_read_hit_frac", ratio(hits, hits+misses))
	res.set("core.helped_frac", ratio(delta("universal.helped"), delta("universal.cons_ops")))
	res.set("core.batch_len_mean", histMean("universal.batch_len"))
	res.set("core.replay_len_mean", histMean("universal.replay_len"))
	res.set("core.replay_len_max", float64(regA["universal.replay_len"].Max))
	res.set("core.cons_ops_per_write", ratio(delta("universal.cons_ops"), puts))
	res.set("core.snapshot_stores_per_write", ratio(delta("universal.snapshot_stores"), puts))
	res.set("core.retired_per_write", ratio(delta("universal.retired"), puts))
	res.set("core.log_len_max", float64(logLenMax))
	res.set("core.gc_scan_len_mean", histMean("universal.gc_scan_len"))
	res.set("core.op_steps_max", float64(regA["universal.op_steps"].Max))

	res.set("logstore.fsyncs_per_op", ratio(float64(stA.Fsyncs-stB.Fsyncs), ops))
	res.set("logstore.records_per_batch", ratio(float64(stA.Records-stB.Records), float64(stA.Batches-stB.Batches)))
	res.set("logstore.live_files_max", float64(liveFilesMax))
	res.set("logstore.compacted_files", float64(stA.Compacted-stB.Compacted))
}

// keepClientSpans turns the traced window just run into client spans -
// enqueue, flush, reply per request id - keeping the first clientSpanCap
// requests of each lane from the first traced window only.
func (r *runner) keepClientSpans() {
	if r.clientSpansKept {
		return
	}
	r.clientSpansKept = true
	shift := r.tr.now() - r.sys.now() // stream times are on the system's clock
	first := r.streams[0].sendT[0]
	for _, st := range r.streams {
		if st.sendT[0] < first {
			first = st.sendT[0]
		}
	}
	root := r.tr.add("client.window", first+shift, r.tr.now(), -1, -1)
	for _, st := range r.streams {
		for i := 0; i < len(st.ops) && i < clientSpanCap; i++ {
			req := int64(st.lane)<<32 | int64(i)
			sent, reply := st.sendT[i]+shift, st.sendT[i]+st.lat[i]+shift
			s := r.tr.add("client.request", sent, reply, root, req)
			if st.flushT != nil && st.flushT[i] != 0 {
				r.tr.add("client.queued", sent, st.flushT[i]+shift, s, req)
				r.tr.add("client.in_flight", st.flushT[i]+shift, reply, s, req)
			}
		}
	}
}

// tracePhases runs everything only a traced run does, after the windows
// and the read-back and before the recoveries.
func (r *runner) tracePhases() error {
	res := r.res
	rawTput, rawCPU := res.metrics["client.raw_tput_ops_per_s"], res.metrics["client.raw_cpu_us_per_op"]
	if err := r.sweep(rawTput); err != nil {
		return err
	}
	clientSelf, err := r.clientSelf()
	if err != nil {
		return err
	}
	res.set("client.self_cpu_us_per_op", clientSelf)

	lt, err := r.layerReplay()
	if err != nil {
		return err
	}
	r.wfstatsOverhead()
	r.stepBound()

	// The cost budget of one op, from the replay: wire both ways, the
	// shard/core call its kind takes, and the store's share of a write.
	wireUS := (lt.encReq + lt.decReq + lt.encResp + lt.decResp) / 1000
	if !r.w.net {
		wireUS = 0
	}
	writeNS := lt.write
	if r.w.durable {
		writeNS = lt.batchPerOp
	}
	coreUS := (lt.readFrac*lt.read + lt.writeFrac*writeNS) / 1000
	var storeUS float64
	if r.w.durable {
		storeUS = lt.writeFrac * (ratio(lt.appendUS, float64(lt.group)) + (lt.snapUS+lt.compactUS)/snapshotEvery)
	}
	sum := wireUS + coreUS + storeUS
	res.set("trace.layers_sum_us_per_op", sum)
	res.set("trace.coverage_frac", ratio(sum, rawCPU))
	// What is left of an op's CPU once the client side (priced against the
	// stub, which includes the wire codec both ways and the socket path),
	// the shard/core call and the store are taken out: the server's own
	// channels, handoffs and window bookkeeping.
	res.set("server.self_us_per_op", rawCPU-clientSelf-coreUS-storeUS)

	return nil
}

// sweep is one open-loop pass at half the measured throughput: ops are due
// on a fixed schedule, latency runs from the due time, and how late the
// generator ran is reported beside it.
func (r *runner) sweep(rawTput float64) error {
	n := r.w.windowOps / 2
	r.generate(phaseSweep, n)
	interval := float64(lanes) / (rawTput / 2) * 1e9 // ns between a lane's ops
	for _, st := range r.streams {
		st.due = make([]int64, len(st.ops))
		st.late = make([]int64, len(st.ops))
		for i := range st.due {
			st.due[i] = int64(float64(i) * interval)
		}
	}
	r.exec(r.sys, r.streams, depth)
	var lat, late []int64
	for _, st := range r.streams {
		lat = append(lat, st.lat...)
		late = append(late, st.late...)
	}
	sortInt64(lat)
	sortInt64(late)
	r.res.set("sweep.p50_us_at_half", latQuantileNS(lat, 0.5)/1000)
	r.res.set("sweep.p99_us_at_half", latQuantileNS(lat, 0.99)/1000)
	r.res.set("sweep.gen_late_p99_us", latQuantileNS(late, 0.99)/1000)
	return nil
}

// clientSelf prices the harness's own side: one window's op stream against
// a peer that does no work. Replies are not checked against the oracle's
// verdict (the stub answers 0), so nothing is booked.
func (r *runner) clientSelf() (float64, error) {
	o := newOracle(r.w.keys)
	sys, err := startStubSystem(r.w, o)
	if err != nil {
		return 0, fmt.Errorf("stub: %w", err)
	}
	defer sys.close()
	streams := make([]*stream, lanes)
	n := 0
	for l := range streams {
		streams[l] = &stream{lane: l}
		generate(streams[l], o, r.w.mix, newRNG(r.seed, phaseWindow0, l), r.w.windowOps/lanes)
		n += len(streams[l].ops)
	}
	runtime.GC()
	c0 := cpuTime()
	sys.run(streams, depth)
	return float64((cpuTime() - c0).Microseconds()) / float64(n), nil
}

// layerTimes is what the layer replay measured.
type layerTimes struct {
	encReq, decReq, encResp, decResp float64 // ns per op
	read, write, batchPerOp          float64 // ns per op
	appendUS, snapUS, compactUS      float64 // us per call
	readFrac, writeFrac              float64
	group                            int
}

// step is one layer entry point replayed over n calls. make builds fresh
// state and returns the call; units is how many ops one call carries.
type step struct {
	name  string
	n     int
	units int
	make  func() func(i int)
}

// measure times step in a tight loop (the metric), then runs it again
// with a span around each of the first spanOps calls (the trace file).
func (r *runner) measure(parent int32, s step) float64 {
	call := s.make()
	runtime.GC()
	start := time.Now()
	for i := 0; i < s.n; i++ {
		call(i)
	}
	ns := float64(time.Since(start)) / float64(s.n*s.units)

	call = s.make()
	pass := r.tr.begin(s.name+".pass", parent, -1)
	for i := 0; i < s.n && i < spanOps; i++ {
		sp := r.tr.begin(s.name, pass, int64(i))
		call(i)
		r.tr.end(sp)
	}
	r.tr.end(pass)
	return ns
}

// layerReplay regenerates window 0's op stream on a fresh model and pushes
// it through wire, shard/core and logstore one layer at a time.
func (r *runner) layerReplay() (layerTimes, error) {
	var lt layerTimes
	res := r.res
	o := newOracle(r.w.keys)
	for k := range o.val {
		o.val[k] = valueOf(k, 0)
	}
	streams := make([]*stream, lanes)
	for l := range streams {
		streams[l] = &stream{lane: l}
		generate(streams[l], o, r.w.mix, newRNG(r.seed, phaseWindow0, l), replayOps/lanes)
	}
	var ops, gets, puts []seqspec.Op
	for i := 0; i < replayOps/lanes; i++ {
		for _, st := range streams {
			op := st.ops[i]
			ops = append(ops, op)
			switch op.Kind {
			case "get":
				gets = append(gets, op)
			case "put":
				puts = append(puts, op)
			}
		}
	}
	n := len(ops)
	lt.readFrac, lt.writeFrac = float64(len(gets))/float64(n), float64(len(puts))/float64(n)
	if len(gets) == 0 {
		// A put-only mix still gets its read path timed, on the puts' keys.
		for _, op := range puts {
			gets = append(gets, seqspec.Op{Kind: "get", Args: op.Args[:1]})
		}
	}
	root := r.tr.begin("layer_replay", -1, -1)
	defer func() { r.tr.end(root) }()

	// wire: the client's request path, the server's decode, the reply codec.
	encode := func(w *bufio.Writer) func(int) {
		var buf []byte
		return func(i int) {
			buf = wire.AppendRequest(buf[:0], uint64(i+1), ops[i])
			wire.WriteFrame(w, buf)
		}
	}
	var reqs bytes.Buffer
	bw := bufio.NewWriterSize(&reqs, 4096)
	enc := encode(bw)
	for i := range ops {
		enc(i)
	}
	bw.Flush()
	var resps []byte
	for i := range ops {
		resps = wire.AppendResponseFrame(resps, uint64(i+1), streams[i%lanes].want[i/lanes])
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lt.encReq = r.measure(root, step{"wire.encode_req", n, 1, func() func(int) {
		var sink bytes.Buffer
		sink.Grow(reqs.Len())
		return encode(bufio.NewWriterSize(&sink, 4096))
	}})
	lt.decReq = r.measure(root, step{"wire.decode_req", n, 1, func() func(int) {
		dec := wire.NewDecoder(bytes.NewReader(reqs.Bytes()))
		return func(int) {
			p, _ := dec.Next()
			wire.DecodeRequest(p)
		}
	}})
	lt.encResp = r.measure(root, step{"wire.encode_resp", n, 1, func() func(int) {
		out := make([]byte, 0, len(resps))
		return func(i int) { out = wire.AppendResponseFrame(out, uint64(i+1), int64(i)) }
	}})
	lt.decResp = r.measure(root, step{"wire.decode_resp", n, 1, func() func(int) {
		dec := wire.NewDecoder(bytes.NewReader(resps))
		return func(int) {
			p, _ := dec.Next()
			wire.DecodeReply(p)
		}
	}})
	runtime.ReadMemStats(&m1)
	res.set("wire.encode_req_ns", lt.encReq)
	res.set("wire.decode_req_ns", lt.decReq)
	res.set("wire.resp_roundtrip_ns", lt.encResp+lt.decResp)
	// Each loop ran twice (tight and spanned); the spanned half's span
	// appends are amortised slice growth, a handful of mallocs.
	res.set("wire.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(2*n))
	res.set("wire.req_bytes", float64(reqs.Len())/float64(n))
	res.set("wire.resp_bytes", float64(len(resps))/float64(n))

	// shard/core: a fresh sharded KV at the workload's state size, one
	// caller, so the numbers are the uncontended cost of each entry point.
	newKV := func() *shard.Sharded {
		kv := waitfree.NewShardedKV(r.w.shards, lanes,
			func() waitfree.FetchAndCons { return waitfree.NewSwapFetchAndCons() })
		for k := 0; k < r.w.keys; k++ {
			kv.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{int64(k), valueOf(k, 0)}})
		}
		return kv
	}
	lt.read = r.measure(root, step{"shard.invoke_read", len(gets), 1, func() func(int) {
		kv := newKV()
		return func(i int) { kv.Invoke(0, gets[i]) }
	}})
	nPuts := len(puts)
	if nPuts > 4096 {
		nPuts = 4096 // a put clones its shard's state; this is plenty
	}
	lt.write = r.measure(root, step{"shard.invoke_write", nPuts, 1, func() func(int) {
		kv := newKV()
		return func(i int) { kv.Invoke(0, puts[i]) }
	}})
	drain := int(res.metrics["core.batch_len_mean"] + 0.5)
	if !r.w.durable || drain < 2 {
		drain = nominalDrain
	}
	router := newKV()
	byShard := make([][]seqspec.Op, r.w.shards)
	for _, op := range puts[:nPuts] {
		sh := router.ShardOf(op.Args[0])
		byShard[sh] = append(byShard[sh], op)
	}
	type batch struct {
		sh  int
		ops []seqspec.Op
	}
	var batches []batch
	for sh, list := range byShard {
		for ; len(list) >= drain; list = list[drain:] {
			batches = append(batches, batch{sh, list[:drain]})
		}
	}
	lt.batchPerOp = r.measure(root, step{"shard.invoke_batch", len(batches), drain, func() func(int) {
		kv := newKV()
		out := make([]int64, drain)
		return func(i int) { kv.InvokeBatch(batches[i].sh, 0, batches[i].ops, out) }
	}})
	res.set("shard.invoke_read_ns", lt.read)
	res.set("shard.invoke_write_ns", lt.write)
	res.set("shard.invoke_batch_ns_per_op", lt.batchPerOp)

	// core: the state copy a write pays for, at one shard's size.
	state := seqspec.KV{}.Init()
	for k := 0; k < r.w.keys/r.w.shards; k++ {
		state.Apply(seqspec.Op{Kind: "put", Args: []int64{int64(k), valueOf(k, 0)}})
	}
	const clones = 400
	start := time.Now()
	for i := 0; i < clones; i++ {
		stateSink = state.Clone()
	}
	res.set("core.state_clone_ns", float64(time.Since(start))/clones)

	// logstore: the same records through a scratch store on the same
	// file system, at the group size the live run showed.
	lt.group = int(res.metrics["logstore.records_per_batch"] + 0.5)
	if lt.group < 1 {
		lt.group = nominalGroup
	}
	if err := r.storeReplay(root, router, puts[:nPuts], &lt); err != nil {
		return lt, fmt.Errorf("logstore replay: %w", err)
	}
	return lt, nil
}

var stateSink seqspec.State

// storeReplay drives logstore's entry points directly: group commits,
// one snapshot per shard, more commits, a compaction that erases the
// covered half, then a reopen with snapshot load and log replay.
func (r *runner) storeReplay(root int32, router *shard.Sharded, puts []seqspec.Op, lt *layerTimes) error {
	res := r.res
	dir, err := r.sc.dir("layer-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := logstore.Open(dir)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	seq := make([]uint64, r.w.shards)
	states := make([]map[int64]int64, r.w.shards)
	for sh := range states {
		states[sh] = map[int64]int64{}
	}
	for k := 0; k < r.w.keys; k++ {
		states[router.ShardOf(int64(k))][int64(k)] = valueOf(k, 0)
	}
	recs := make([]logstore.Record, len(puts))
	for i, op := range puts {
		sh := router.ShardOf(op.Args[0])
		seq[sh]++
		recs[i] = logstore.Record{Shard: uint32(sh), Seq: seq[sh], Op: op}
	}
	pass := r.tr.begin("logstore.pass", root, -1)
	defer func() { r.tr.end(pass) }()
	timeCall := func(name string, req int64, fn func() error) (float64, error) {
		sp := r.tr.begin(name, pass, req)
		err := fn()
		r.tr.end(sp)
		return float64(r.tr.spans[sp].End-r.tr.spans[sp].Start) / 1000, err
	}
	var appendUS []float64
	appendRange := func(recs []logstore.Record) error {
		for ; len(recs) >= lt.group; recs = recs[lt.group:] {
			us, err := timeCall("logstore.append_batch", int64(len(appendUS)), func() error { return st.AppendBatch(recs[:lt.group]) })
			if err != nil {
				return err
			}
			appendUS = append(appendUS, us)
		}
		return nil
	}
	half := len(recs) / 2 / lt.group * lt.group
	if err := appendRange(recs[:half]); err != nil {
		return err
	}
	var logBytes int64
	files, _ := filepath.Glob(filepath.Join(dir, "log-*"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			logBytes += fi.Size()
		}
	}
	res.set("logstore.bytes_per_op", ratio(float64(logBytes), float64(half)))
	covered := make([]uint64, r.w.shards)
	for _, rec := range recs[:half] {
		covered[rec.Shard] = rec.Seq
	}
	var snapUS []float64
	for sh := range states {
		us, err := timeCall("logstore.write_snapshot", int64(sh), func() error {
			return st.WriteSnapshot(logstore.Snapshot{Shard: uint32(sh), Seq: covered[sh], State: states[sh]})
		})
		if err != nil {
			return err
		}
		snapUS = append(snapUS, us)
	}
	if err := appendRange(recs[half:]); err != nil {
		return err
	}
	lt.compactUS, err = timeCall("logstore.compact", -1, func() error { _, err := st.Compact(); return err })
	if err != nil {
		return err
	}
	lt.appendUS, lt.snapUS = mean(appendUS), mean(snapUS)
	res.set("logstore.append_batch_us", lt.appendUS)
	res.set("logstore.snapshot_write_us", lt.snapUS)
	res.set("logstore.compact_us", lt.compactUS)
	if err := st.Close(); err != nil {
		return err
	}

	if st, err = logstore.Open(dir); err != nil {
		return err
	}
	loadUS, err := timeCall("logstore.snapshots_load", -1, func() error { _, err := st.Snapshots(); return err })
	if err != nil {
		return err
	}
	replayed := 0
	replayUS, err := timeCall("logstore.replay", -1, func() error {
		return st.Replay(func(logstore.Record) error { replayed++; return nil })
	})
	if err != nil {
		return err
	}
	res.set("logstore.snapshots_load_us", loadUS)
	res.set("logstore.replay_us_per_record", ratio(replayUS, float64(replayed)))
	return nil
}

// wfstatsOverhead compares the library's read fast path with and without
// a metrics registry: the observability budget, made checkable.
func (r *runner) wfstatsOverhead() {
	const reads, rounds = 200_000, 5
	build := func(opts ...waitfree.Option) *shard.Sharded {
		kv := waitfree.NewShardedKV(1, lanes,
			func() waitfree.FetchAndCons { return waitfree.NewSwapFetchAndCons() }, opts...)
		for k := 0; k < 2048; k++ {
			kv.Invoke(0, seqspec.Op{Kind: "put", Args: []int64{int64(k), int64(k)}})
		}
		return kv
	}
	with, without := build(), build(waitfree.WithMetrics(nil))
	get := seqspec.Op{Kind: "get", Args: []int64{0}}
	loop := func(kv *shard.Sharded) float64 {
		start := time.Now()
		for i := 0; i < reads; i++ {
			get.Args[0] = int64(i & 2047)
			kv.Invoke(0, get)
		}
		return float64(time.Since(start)) / reads
	}
	var on, off []float64
	for i := 0; i < rounds; i++ {
		on = append(on, loop(with))
		off = append(off, loop(without))
	}
	record := median(on) - median(off)
	r.res.set("wfstats.record_ns", record)
	r.res.set("wfstats.overhead_frac", ratio(record, median(off)))
}

// stepBound evaluates the certified worst-case step bound of the write
// entry point the workload uses (BOUNDS.md's certificate, recomputed from
// source by internal/wfcheck) at the live parameters, beside the largest
// step count an operation was seen to take.
func (r *runner) stepBound() {
	res := r.res
	bound, err := certifiedBound(r.w, len(r.sys.reg.Snapshot()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: step bound unavailable: %v\n", err)
	}
	res.set("core.op_steps_bound", float64(bound))
	res.set("core.bound_headroom", ratio(float64(bound), res.metrics["core.op_steps_max"]))
}

func certifiedBound(w *workload, registered int) (int64, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	root, err := wfcheck.FindModuleRoot(cwd)
	if err != nil {
		return 0, err
	}
	loader, err := wfcheck.NewLoader(root)
	if err != nil {
		return 0, err
	}
	if loader.Module == "waitfree/bench" {
		// Started from inside bench/ (the self-tests): the certificates are
		// the enclosing module's.
		if root, err = wfcheck.FindModuleRoot(filepath.Dir(root)); err != nil {
			return 0, err
		}
		if loader, err = wfcheck.NewLoader(root); err != nil {
			return 0, err
		}
	}
	facade, err := loader.LoadDir(root)
	if err != nil {
		return 0, err
	}
	certs := wfcheck.Config{}.RunProgram(wfcheck.NewProgram(loader), []*wfcheck.Package{facade}).Ops
	op := "core.Universal.Invoke"
	procs := lanes
	if w.net {
		procs = 64 + w.shards // the server's default pid pool plus one applier pid per shard
	}
	if w.durable {
		op = "core.Universal.InvokeBatch"
	}
	for _, c := range certs {
		if c.Op != op {
			continue
		}
		return c.Poly.Eval(map[string]int64{
			"n": int64(procs), "k": 1, "g": core.DefaultGCEvery, "S": int64(w.shards),
			"B": 4096, "C": 512, "M": int64(registered),
		})
	}
	return 0, fmt.Errorf("no certificate for %s among the %d of %s", op, len(certs), root)
}
