package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks (0 for an empty slice). vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// cv is the coefficient of variation (population standard deviation over
// the mean): a run's own reading of how noisy its windows were.
func cv(vals []float64) float64 {
	m := mean(vals)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss/float64(len(vals))) / m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), which is
// what the driver's spread check uses. It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// latQuantileNS returns the q-quantile of sorted nanosecond latencies.
func latQuantileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

func sortInt64(a []int64) { sort.Slice(a, func(i, j int) bool { return a[i] < a[j] }) }

// The reference kernel. Every timed phase is bracketed by two runs of it;
// the phase's speed factor is the mean of the two runs' factors, and every
// time measured in the phase is divided by it (rates multiplied). On a
// shared box identical code drifts by 30 % from one run to the next, and
// the drift is not one number: arithmetic, memory and the kernel's socket
// path slow down by different amounts. So the kernel has three parts - an
// xorshift loop, map cloning (allocation and GC, what a write's state copy
// costs), and small-message ping-pong over a loopback TCP pair (syscalls
// and wake-ups, what a request costs) - and a run's factor is the
// geometric mean of each part's time over its nominal time (without the
// socket part for the library workload, which has no sockets). Measured on
// the reference box over 32 runs: raw throughput medians vary with a
// coefficient of variation of 6-12 %, divided by the xorshift loop alone
// 4-7 %, by the three-part factor 1.5-4.4 %. All of it is code of this
// directory, so no change to the program can move it. The nominal times
// are the parts' medians on the reference box; they only fix the scale and
// must never be re-tuned once numbers are being compared.
const (
	refALUSteps  = 20_000_000
	refMemClones = 150
	refMemKeys   = 2048
	refSockTrips = 1500
	refRounds    = 3

	refALUNominal  = 41 * time.Millisecond
	refMemNominal  = 19 * time.Millisecond
	refSockNominal = 11 * time.Millisecond
)

var (
	refALUSink uint64
	refMemSink map[int64]int64
)

// reference owns the loopback pair the socket part plays ping-pong on.
type reference struct {
	near, far net.Conn
	echoDone  chan struct{}
}

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	ref := &reference{near: near, far: far, echoDone: make(chan struct{})}
	go func() {
		defer close(ref.echoDone)
		buf := make([]byte, refMsgLen)
		for {
			if _, err := io.ReadFull(far, buf); err != nil {
				return // close() cut the pair
			}
			if _, err := far.Write(buf); err != nil {
				return
			}
		}
	}()
	return ref, nil
}

func (ref *reference) close() {
	ref.near.Close()
	ref.far.Close()
	<-ref.echoDone
}

// refMsgLen is a response frame's size on the wire.
const refMsgLen = 21

// refTimes is one run of the kernel.
type refTimes struct{ alu, mem, sock time.Duration }

// factor is the run's speed factor. The socket part counts only for a
// workload that uses sockets.
func (t refTimes) factor(sockets bool) float64 {
	cpu := float64(t.alu) / float64(refALUNominal) * float64(t.mem) / float64(refMemNominal)
	if !sockets {
		return math.Sqrt(cpu)
	}
	return math.Cbrt(cpu * float64(t.sock) / float64(refSockNominal))
}

func (t refTimes) ms() float64 { return float64(t.alu+t.mem+t.sock) / float64(time.Millisecond) }

// both runs fn on two goroutines and returns the elapsed time: the box has
// two cores and the program under test keeps both busy.
func both(fn func(g int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// run runs the kernel once, on a freshly collected heap so that what the
// phase before left behind does not decide how many GC cycles the memory
// part pays for. Each part runs in refRounds equal rounds and counts as
// refRounds times their median, so one burst of interference inside a
// part does not pass for a slower box.
func (ref *reference) run() (refTimes, error) {
	runtime.GC()
	var t refTimes
	part := func(round func() time.Duration) time.Duration {
		var ds [refRounds]float64
		for i := range ds {
			ds[i] = float64(round())
		}
		return time.Duration(refRounds * median(ds[:]))
	}
	t.alu = part(func() time.Duration {
		var out [2]uint64
		d := both(func(g int) {
			x := uint64(0x9E3779B97F4A7C15) + uint64(g)
			for i := 0; i < refALUSteps/refRounds; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			out[g] = x
		})
		refALUSink += out[0] ^ out[1]
		return d
	})
	t.mem = part(func() time.Duration {
		var last [2]map[int64]int64
		d := both(func(g int) {
			m := make(map[int64]int64, refMemKeys)
			for k := int64(0); k < refMemKeys; k++ {
				m[k] = k
			}
			for i := 0; i < refMemClones/refRounds; i++ {
				c := make(map[int64]int64, len(m))
				for k, v := range m {
					c[k] = v
				}
				last[g] = c
			}
		})
		refMemSink = last[0]
		return d
	})
	var err error
	buf := make([]byte, refMsgLen)
	t.sock = part(func() time.Duration {
		start := time.Now()
		for i := 0; i < refSockTrips/refRounds && err == nil; i++ {
			if _, err = ref.near.Write(buf); err == nil {
				_, err = io.ReadFull(ref.near, buf)
			}
		}
		return time.Since(start)
	})
	if err != nil {
		return t, fmt.Errorf("reference kernel: %w", err)
	}
	return t, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rng is splitmix64: tiny, fast and the same on every Go version, so a seed
// names one op stream for good.
type rng struct{ s uint64 }

func newRNG(seed uint64, phase, lane int) *rng {
	r := &rng{s: seed ^ uint64(phase)*0xD1B54A32D192ED03 ^ uint64(lane+1)*0x8CB92BA72F3D8DD7}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// key-space sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
