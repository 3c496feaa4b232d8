package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public functions (nothing inside the program under
// test is instrumented). Times are nanoseconds since the tracer's
// epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	ID     int    `json:"id"`     // step or round the span belongs to
	// N is the work the span covered (machines ticked, samples folded,
	// specs pushed), so a per-unit cost can be read off a chunked span.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out once, at exit. It
// is used from one goroutine only (the benchmark's driving loop), so it
// takes no lock. A nil tracer records nothing, which is how the
// end-to-end runs share code with the traced ones.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span idx, recording n units of work.
func (t *tracer) end(idx, n int) {
	if t == nil || idx < 0 {
		return
	}
	t.spans[idx].End = int64(time.Since(t.epoch))
	t.spans[idx].N = n
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover — the time spent in the layer itself.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// totalNs sums the durations of the named spans.
func totalNs(spans []span, name string) int64 {
	var sum int64
	for _, s := range spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// write stores the spans as <dir>/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
