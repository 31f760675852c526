package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"waitfree/internal/logstore"
	"waitfree/internal/wfstats"
)

// Phase numbers seed the per-phase, per-lane generators.
const (
	phaseWarm    = 1
	phaseSweep   = 2
	phaseFloor0  = 100  // unloaded-latency chunk c is phaseFloor0+c
	phaseWindow0 = 1000 // window i is phaseWindow0+i
)

// The unloaded-latency phase is cut into one chunk per window, run right
// after the window inside the same pair of reference-kernel runs, and
// lat_unloaded_mean_us is the median of the chunks' means: a depth-1
// ping-pong is at the mercy of how fast an idle core wakes, which on a
// shared box changes from one second to the next, so it is sampled at many
// moments instead of measured at one.

// snapshotEvery is passed to the server explicitly (it equals the server's
// default) because the recovery phase aligns every shard to a fixed
// distance past its newest snapshot and has to know the period.
const snapshotEvery = 4096

// recoverAt is that distance: every crash image holds the newest snapshot
// of each shard plus recoverAt log records to replay on it - the middle of
// the snapshot cycle, the same for every seed.
const recoverAt = snapshotEvery / 2

// result is everything one run measured.
type result struct {
	workload  string
	seed      uint64
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string          // oracle mismatches, broken idle-layer assertions, harness faults
	info      map[string]string // not metrics: where the store lived, the op-stream hash, ...
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) problem(format string, a ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// windowStat is one measurement window, raw and as divided by its factor.
type windowStat struct {
	traced             bool
	factor, refMS      float64
	rawTput, rawCPU    float64 // ops/s, CPU us/op
	rawP50, p99, p999  float64 // us
	floorUS            float64 // the window's unloaded-latency chunk, raw
	allocB, allocs, gc float64 // per op, per op, cycles
	cpuSec, gcCPUSec   float64 // process CPU and the GC's share of it
	ops                int
}

// runner carries one run's state through its phases.
type runner struct {
	w       *workload
	seed    uint64
	windows int
	traced  bool
	ref     *reference // nil in the self-tests: no normalisation
	lastRef struct {
		factor, ms float64
		at         time.Time
	}
	sc  *scratch
	res *result

	o        *oracle
	sys      *system
	storeDir string
	streams  []*stream
	floor    *stream // lane 0's unloaded-latency chunks
	hash     uint64  // of the windows' op streams
	ops      int     // ops run between the counter snapshots: windows and unloaded-latency chunks
	puts     int     // the puts among them

	tr              *tracer // traced runs only
	outDir          string  // where the trace file goes
	clientSpansKept bool

	// corrupt is handed to every system the run starts (self-tests only).
	corrupt func(int64) int64
}

func newRunner(w *workload, seed uint64, seconds int, traced bool, sc *scratch) *runner {
	r := &runner{w: w, seed: seed, windows: windowsFor(seconds), traced: traced, sc: sc,
		res: &result{workload: w.name, seed: seed, metrics: map[string]float64{}, info: map[string]string{}}}
	if traced {
		r.tr, r.outDir = newTracer(), filepath.Join("bench", "out")
	}
	for l := 0; l < lanes; l++ {
		r.streams = append(r.streams, &stream{lane: l})
	}
	r.floor = &stream{lane: 0}
	return r
}

// refRun runs the reference kernel once and returns its speed factor and
// its time in ms; a failure is booked as a problem and reads as factor 1.
func (r *runner) refRun() (factor, ms float64) {
	if r.ref == nil {
		return 1, 0
	}
	t, err := r.ref.run()
	if err != nil {
		r.res.problem("%v", err)
		return 1, 0
	}
	return t.factor(r.w.net), t.ms()
}

// timed runs fn between two reference-kernel runs, after a GC, and returns
// its raw seconds, the speed factor to divide them by, and the kernel's ms.
//
// Phases that follow one another share the kernel run between them: the
// one that closed the last phase opens the next, unless it has gone stale.
func (r *runner) timed(fn func()) (raw, factor, refMS float64) {
	f0, ms0 := r.lastRef.factor, r.lastRef.ms
	if time.Since(r.lastRef.at) > refFresh {
		f0, ms0 = r.refRun()
	}
	runtime.GC()
	start := time.Now()
	fn()
	raw = time.Since(start).Seconds()
	f1, ms1 := r.refRun()
	r.lastRef.factor, r.lastRef.ms, r.lastRef.at = f1, ms1, time.Now()
	return raw, (f0 + f1) / 2, (ms0 + ms1) / 2
}

// refFresh is how long a reference-kernel run stays good for opening the
// next phase: long enough to generate and sort a window's streams.
const refFresh = 250 * time.Millisecond

// exec runs the lanes' streams on sys and books the outcome.
func (r *runner) exec(sys *system, streams []*stream, d int) {
	sys.run(streams, d)
	for _, st := range streams {
		r.res.attempted += len(st.ops)
		r.res.failed += st.failed
		if st.firstErr != "" {
			r.res.problem("%s", st.firstErr)
		}
	}
}

func (r *runner) start(dir string, o *oracle) (*system, error) {
	sys, err := startSystem(r.w, dir, o)
	if err == nil {
		sys.corrupt = r.corrupt
	}
	return sys, err
}

// preload puts every key once on a fresh system, pipelined, lanes side by
// side.
func (r *runner) preload(sys *system, o *oracle) {
	for _, st := range r.streams {
		preloadStream(st, o)
	}
	r.exec(sys, r.streams, depth)
}

// generate fills the lanes' streams with n ops in all of phase's mix.
func (r *runner) generate(phase, n int) {
	for l, st := range r.streams {
		generate(st, r.o, r.w.mix, newRNG(r.seed, phase, l), n/lanes)
	}
}

// setUp is one full set-up: store directory, server or library object,
// connections, preload of every key, fixed-count warm-up.
func (r *runner) setUp() error {
	r.storeDir = ""
	if r.w.durable {
		dir, err := r.sc.dir("store")
		if err != nil {
			return err
		}
		r.storeDir = dir
	}
	r.o = newOracle(r.w.keys)
	sys, err := r.start(r.storeDir, r.o)
	if err != nil {
		return err
	}
	r.sys = sys
	r.preload(sys, r.o)
	r.generate(phaseWarm, r.w.warmOps)
	r.exec(sys, r.streams, depth)
	return nil
}

func (r *runner) tearDown() {
	if r.sys != nil {
		if err := r.sys.close(); err != nil {
			r.res.problem("close: %v", err)
		}
		r.sys = nil
	}
	if r.storeDir != "" {
		os.RemoveAll(r.storeDir)
	}
}

// regSnapshot indexes a registry snapshot by metric name.
func regSnapshot(reg *wfstats.Registry) map[string]wfstats.Sample {
	m := map[string]wfstats.Sample{}
	for _, s := range reg.Snapshot() {
		m[s.Name] = s
	}
	return m
}

func (r *runner) storeStats() logstore.Stats {
	if r.sys.srv == nil || r.sys.srv.Store() == nil {
		return logstore.Stats{}
	}
	return r.sys.srv.Store().Stats()
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// run is the whole run: set-ups, windows with their unloaded-latency
// chunks, read-back, idle-layer assertions, in a traced run the per-layer
// phases, and recoveries.
func (r *runner) run() error {
	defer r.tearDown()
	res := r.res
	res.info["store_fs"] = r.sc.fs
	res.info["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	res.info["windows"] = fmt.Sprint(r.windows)

	// Set-up, several times over; the last one stays up for the run.
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.tearDown()
		}
		var err error
		raw, factor, _ := r.timed(func() { err = r.setUp() })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, raw/factor)
	}
	res.set("setup_s", median(setupS))

	regBefore, storeBefore := regSnapshot(r.sys.reg), r.storeStats()
	var ws []windowStat
	var liveFilesMax, logLenMax int64
	for wi := 0; wi < r.windows; wi++ {
		r.generate(phaseWindow0+wi, r.w.windowOps)
		r.hash = hashStreams(r.hash, r.streams)
		r.count(r.streams)
		traced := r.traced && wi%2 == 1
		if traced {
			for _, st := range r.streams {
				st.flushT = make([]int64, len(st.ops))
			}
		}
		ws = append(ws, r.window(wi, traced))
		if traced {
			r.keepClientSpans()
		}
		if n := r.storeStats().LogFiles; n > liveFilesMax {
			liveFilesMax = n
		}
		if s, ok := regSnapshot(r.sys.reg)["universal.log_len"]; ok && s.Value > logLenMax {
			logLenMax = s.Value
		}
	}
	regAfter, storeAfter := regSnapshot(r.sys.reg), r.storeStats()
	res.info["op_stream_hash"] = fmt.Sprintf("%016x", r.hash)
	res.set("runtime.goroutines", float64(runtime.NumGoroutine()))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("runtime.heap_retained_mb", float64(ms.HeapAlloc)/(1<<20))
	r.summarise(ws)

	// Read the whole key space back; every key must hold the model's value.
	for _, st := range r.streams {
		readbackStream(st, r.o)
	}
	r.exec(r.sys, r.streams, depth)

	r.assertIdleLayers(regBefore, regAfter, storeBefore, storeAfter)
	r.layerCounters(regBefore, regAfter, storeBefore, storeAfter, liveFilesMax, logLenMax)

	if r.traced {
		if err := r.tracePhases(); err != nil {
			return err
		}
	}
	if err := r.recoveries(); err != nil {
		return err
	}
	if r.traced {
		res.set("trace.spans", float64(len(r.tr.spans)))
		path, err := r.tr.write(res, r.outDir)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		res.info["trace_file"] = path
	}
	return nil
}

// summarise turns the windows into metrics: medians over the windows, each
// window's times divided by its speed factor. In a traced run the
// end-to-end numbers come from the untraced windows only, and the
// difference between the two kinds is the tracing overhead.
func (r *runner) summarise(ws []windowStat) {
	res := r.res
	med := func(traced bool, f func(windowStat) float64) float64 {
		var vals []float64
		for _, w := range ws {
			if w.traced == traced {
				vals = append(vals, f(w))
			}
		}
		return median(vals)
	}
	tput := func(w windowStat) float64 { return w.rawTput * w.factor }
	rawTput := func(w windowStat) float64 { return w.rawTput }
	res.set("tput_ops_per_s", med(false, tput))
	res.set("lat_loaded_p50_us", med(false, func(w windowStat) float64 { return w.rawP50 / w.factor }))
	res.set("lat_unloaded_mean_us", med(false, func(w windowStat) float64 { return w.floorUS / w.factor }))
	res.set("cpu_us_per_op", med(false, func(w windowStat) float64 { return w.rawCPU / w.factor }))
	res.set("alloc_bytes_per_op", med(false, func(w windowStat) float64 { return w.allocB }))
	res.set("allocs_per_op", med(false, func(w windowStat) float64 { return w.allocs }))
	res.set("client.raw_tput_ops_per_s", med(false, rawTput))
	res.set("client.raw_cpu_us_per_op", med(false, func(w windowStat) float64 { return w.rawCPU }))
	res.set("client.raw_lat_loaded_p50_us", med(false, func(w windowStat) float64 { return w.rawP50 }))
	res.set("client.lat_loaded_p99_us", med(false, func(w windowStat) float64 { return w.p99 / w.factor }))
	res.set("client.lat_loaded_p999_us", med(false, func(w windowStat) float64 { return w.p999 / w.factor }))
	res.set("client.ref_ms", med(false, func(w windowStat) float64 { return w.refMS }))
	if r.traced {
		res.set("trace.overhead_frac", 1-ratio(med(true, tput), med(false, tput)))
	}
	var tputs []float64
	var ops, gcCycles, gcCPU, cpu float64
	for _, w := range ws {
		tputs = append(tputs, w.rawTput)
		ops += float64(w.ops)
		gcCycles += w.gc
		gcCPU += w.gcCPUSec
		cpu += w.cpuSec
	}
	res.set("client.window_cv", cv(tputs))
	res.set("client.lat_samples", ops)
	res.set("runtime.gc_cycles_per_kop", gcCycles/ops*1000)
	res.set("runtime.gc_cpu_frac", ratio(gcCPU, cpu))
}

// count books the ops about to run between the two counter snapshots the
// per-layer ratios are taken over.
func (r *runner) count(streams []*stream) {
	for _, st := range streams {
		r.ops += len(st.ops)
		for i := range st.ops {
			if st.ops[i].Kind == "put" {
				r.puts++
			}
		}
	}
}

// floorChunk runs window wi's piece of the unloaded-latency phase - one
// lane, one request in flight - and returns its mean round trip in us, not
// yet divided by the speed factor. The mean, because the mix's kinds cost
// very different amounts (a put pays a state clone, and a GC mark phase
// doubles it) and a median sits on one side of that cliff or the other.
func (r *runner) floorChunk(wi int) float64 {
	generate(r.floor, r.o, r.w.mix, newRNG(r.seed, phaseFloor0+wi, 0), r.w.floorOps/r.windows)
	r.count([]*stream{r.floor})
	r.exec(r.sys, []*stream{r.floor}, 1)
	var sum float64
	for _, ns := range r.floor.lat {
		sum += float64(ns)
	}
	return sum / float64(len(r.floor.lat)) / 1000
}

// mixMedianUS is the streams' typical latency in us: the median latency of
// each op kind, weighted by the kind's share of the ops. Where kinds cost
// alike (every op of a full window waits in the same queue) this is the
// plain median; where they do not (a 0.1 us library get beside a 200 us
// put, half and half) the plain median sits on the cliff between the two
// and jumps from run to run, and this does not.
func mixMedianUS(streams []*stream) float64 {
	byKind := map[string][]int64{}
	n := 0
	for _, st := range streams {
		for i := range st.ops {
			byKind[st.ops[i].Kind] = append(byKind[st.ops[i].Kind], st.lat[i])
		}
		n += len(st.ops)
	}
	var us float64
	for _, lat := range byKind {
		sortInt64(lat)
		us += latQuantileNS(lat, 0.5) / 1000 * float64(len(lat)) / float64(n)
	}
	return us
}

// window runs measurement window wi on the streams already generated,
// then the window's unloaded-latency chunk, between one pair of
// reference-kernel runs.
func (r *runner) window(wi int, traced bool) windowStat {
	var m0, m1 runtime.MemStats
	var secs, cpu, gcCPU, floorUS float64
	ops := 0
	for _, st := range r.streams {
		ops += len(st.ops)
	}
	_, factor, refMS := r.timed(func() {
		runtime.ReadMemStats(&m0)
		g0, c0, start := gcCPUSeconds(), cpuTime(), time.Now()
		r.exec(r.sys, r.streams, depth)
		secs, cpu, gcCPU = time.Since(start).Seconds(), (cpuTime() - c0).Seconds(), gcCPUSeconds()-g0
		runtime.ReadMemStats(&m1)
		floorUS = r.floorChunk(wi)
	})
	var lat []int64
	for _, st := range r.streams {
		lat = append(lat, st.lat...)
	}
	sortInt64(lat)
	n := float64(ops)
	return windowStat{
		traced: traced, factor: factor, refMS: refMS,
		rawTput: n / secs,
		rawCPU:  cpu * 1e6 / n,
		rawP50:  mixMedianUS(r.streams),
		p99:     latQuantileNS(lat, 0.99) / 1000,
		p999:    latQuantileNS(lat, 0.999) / 1000,
		floorUS: floorUS,
		allocB:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		allocs:  float64(m1.Mallocs-m0.Mallocs) / n,
		gc:      float64(m1.NumGC - m0.NumGC),
		cpuSec:  cpu, gcCPUSec: gcCPU,
		ops: ops,
	}
}

// assertIdleLayers checks, from counters, that the layers a workload is
// said to leave idle did no work during the windows.
func (r *runner) assertIdleLayers(regB, regA map[string]wfstats.Sample, stB, stA logstore.Stats) {
	if !r.w.durable && (r.storeDir != "" || stA.Fsyncs != 0) {
		r.res.problem("idle layer: storeless workload issued %d fsyncs", stA.Fsyncs)
	}
	if r.w.durable && stA.Fsyncs == stB.Fsyncs {
		r.res.problem("durable workload issued no fsync during the windows")
	}
	if hits := regA["universal.fast_read_hit"].Value - regB["universal.fast_read_hit"].Value; r.w.mix == mixPutOnly && hits != 0 {
		r.res.problem("idle layer: put-only workload took the read fast path %d times", hits)
	}
	if ops, ok := regA["server.ops"]; !r.w.net && ok && ops.Value != 0 {
		r.res.problem("idle layer: library workload served %d server ops", ops.Value)
	}
}

// recoverOnce brings one recovered (or fresh) instance up and returns the
// seconds to its first verified get. Untimed, a durable instance then has
// every key read back before it is shut down.
func (r *runner) recoverOnce() (float64, error) {
	o, dir := r.o, ""
	if r.w.durable {
		var err error
		if dir, err = r.sc.dir("image"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		if err := copyStore(r.storeDir, dir); err != nil {
			return 0, fmt.Errorf("crash image: %w", err)
		}
	} else {
		o = newOracle(r.w.keys)
	}
	runtime.GC()
	start := time.Now()
	sys, err := r.start(dir, o)
	if err != nil {
		return 0, err
	}
	if !r.w.durable {
		r.preload(sys, o)
	}
	first := &stream{lane: 0}
	first.reset(1)
	first.setGet(o, 0, 0)
	r.exec(sys, []*stream{first}, 1)
	secs := time.Since(start).Seconds()
	if r.w.durable {
		for _, st := range r.streams {
			readbackStream(st, o)
		}
		r.exec(sys, r.streams, depth)
	}
	if err := sys.close(); err != nil {
		r.res.problem("recovery: close: %v", err)
	}
	return secs, nil
}

// written counts the writes each shard has taken, from the model: the
// preload is one write per key and every later put bumped the version.
func (r *runner) written() []uint64 {
	out := make([]uint64, r.w.shards)
	for k, v := range r.o.val {
		out[r.sys.kv.ShardOf(int64(k))] += uint64(versionOf(v)) + 1
	}
	return out
}

// align brings every shard of the live durable store to exactly recoverAt
// records past its newest snapshot, so each seed's crash image asks the
// same work of recovery. A shard already past the mark is first written up
// to its next snapshot, then topped up like the others; the top-up's
// replies also prove its applier is through with that snapshot and the
// compaction after it (an applier takes its next drain only after them).
func (r *runner) align() error {
	store := r.sys.srv.Store()
	byShard := make([][]int, r.w.shards) // lane 0's keys on each shard
	for k := 0; k < r.w.keys; k += lanes {
		sh := r.sys.kv.ShardOf(int64(k))
		byShard[sh] = append(byShard[sh], k)
	}
	st := r.streams[0]
	for iter := 0; iter < 8; iter++ {
		var beyond []uint64
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			snaps, err := store.Snapshots()
			if err != nil {
				return err
			}
			beyond = r.written()
			pending := false
			for sh := range beyond {
				beyond[sh] -= snaps[uint32(sh)].Seq
				pending = pending || beyond[sh] >= snapshotEvery
			}
			if !pending {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("align: a shard stayed %d records past its snapshot", snapshotEvery)
			}
		}
		need := make([]int, r.w.shards)
		total := 0
		for sh, b := range beyond {
			if b < recoverAt {
				need[sh] = int(recoverAt - b)
			} else if b > recoverAt {
				need[sh] = int(snapshotEvery - b) // on to the next snapshot; topped up next time round
			}
			total += need[sh]
		}
		if total == 0 {
			return nil
		}
		st.reset(total)
		i := 0
		for round := 0; i < total; round++ {
			for sh := range need {
				if round < need[sh] {
					st.setPut(r.o, i, byShard[sh][round%len(byShard[sh])])
					i++
				}
			}
		}
		r.exec(r.sys, []*stream{st}, depth)
	}
	return fmt.Errorf("align: shards did not settle")
}

// recoveries measures recovery_s. Durable: copy the live store directory
// without closing it (a crash image), start a server on the copy, time to
// the first verified get; then, untimed, read every key back - each acked
// write must be there. Storeless: a fresh instance plus the preload, to
// the first verified get.
func (r *runner) recoveries() error {
	var bootRecords float64
	if r.w.durable {
		if err := r.align(); err != nil {
			return err
		}
		snaps, err := r.sys.srv.Store().Snapshots()
		if err != nil {
			return err
		}
		for _, s := range snaps {
			bootRecords += float64(len(s.State))
		}
		bootRecords += float64(recoverAt * r.w.shards)
	} else {
		bootRecords = float64(r.w.keys)
	}
	// A durable recovery is long enough for a pair of reference-kernel runs
	// of its own; a storeless one is shorter than the kernel, so five share
	// a pair.
	batch := 5
	if r.w.durable {
		batch = 1
	}
	var vals []float64
	for i := 0; i < r.w.recovers; i += batch {
		var secs []float64
		var err error
		_, factor, _ := r.timed(func() {
			for j := 0; j < batch && i+j < r.w.recovers && err == nil; j++ {
				var s float64
				s, err = r.recoverOnce()
				secs = append(secs, s)
			}
		})
		if err != nil {
			return fmt.Errorf("recovery %d: %w", i+len(secs)-1, err)
		}
		for _, s := range secs {
			vals = append(vals, s/factor)
		}
	}
	// The lower quartile: a disturbance only ever adds time (one
	// durable-put recovery in six took twice as long as the others), while
	// the speed factor errs both ways.
	recovery := quantile(vals, 0.25)
	r.res.set("recovery_s", recovery)
	r.res.set("server.boot_us_per_record", recovery*1e6/bootRecords)
	return nil
}
