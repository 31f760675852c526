package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// runAA is the benchmark's own noise check: n alternating pairs of runs of
// every workload on the same build, each run a fresh process with a seed
// of its own, exactly as the driver runs them. Set A takes the first run
// of each pair, set B the second. For every end-to-end metric and workload
// it prints both medians, how much worse B's is than A's, the quartile
// spread over the median of each set and of both together, and the bound;
// it fails when B is worse by more than half the bound or the spread of
// all 2n runs exceeds the bound.
func runAA(n, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	type set map[string][]float64 // metric -> one value per run
	a, b := map[string]set{}, map[string]set{}
	for _, w := range workloads {
		a[w.name], b[w.name] = set{}, set{}
	}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for side, into := range []set{a[w.name], b[w.name]} {
				seed := uint64(1000 + 2*i + side)
				start := time.Now()
				m, err := runChild(self, w.name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
					return 2
				}
				for name, v := range m {
					into[name] = append(into[name], v)
				}
				fmt.Fprintf(os.Stderr, "aa: pair %d/%d %s side %c seed %d took %.0f s: %v\n",
					i+1, n, w.name, 'A'+side, seed, time.Since(start).Seconds(), m)
			}
		}
	}
	spread := func(vals []float64) float64 {
		if len(vals) < 2 {
			return 0
		}
		q1, q3 := quartiles(vals)
		return ratio(q3-q1, median(vals))
	}
	bad := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "iqr A+B", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a[w.name][m.name], b[w.name][m.name]
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb, sab := spread(va), spread(vb), spread(append(append([]float64(nil), va...), vb...))
			flag := ""
			if worse > m.bound/2 || (m.name != "setup_s" && sab > m.bound) {
				flag = "  <-- too noisy"
				bad++
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.name, m.name, ma, mb, 100*worse, 100*sa, 100*sb, 100*sab, 100*m.bound, flag)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric/workload pairs outside half their bound\n", bad)
		return 1
	}
	return 0
}

// runChild runs one untraced run in a fresh process and returns its
// end-to-end metrics.
func runChild(self, workload string, seed uint64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var out struct {
		Metrics map[string]jsonMetric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for name, v := range out.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
