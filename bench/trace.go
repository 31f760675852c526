package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// until the run ends and are written once, to bench/out/<workload>.trace.json.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one; -1 for a root
	Req    int64  `json:"req"`    // request id shared by one request's spans; -1 when the span covers many
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].End = t.now() }

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// selfTime is a span name's totals: a layer's self time is its spans'
// duration minus the part their child spans cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (t *tracer) selfTimes() map[string]*selfTime {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*selfTime{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalUS += float64(s.End-s.Start) / 1000
		st.SelfUS += float64(s.End-s.Start-children[i]) / 1000
	}
	return out
}

// write dumps the spans, their self-time totals and the run's counters.
func (t *tracer) write(res *result, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, res.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"workload":  res.workload,
		"seed":      res.seed,
		"info":      res.info,
		"self_time": t.selfTimes(),
		"counters":  res.metrics,
		"spans":     t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
