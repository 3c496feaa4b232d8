package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// benchWarmupSteps is how many Steps run before the timer starts. The
// first ticks of a fresh cluster pay one-time costs — scheduler
// placement settling, scratch buffers growing to the resident task
// count, sampler windows opening — that have nothing to do with
// steady-state stepping. The previous incarnation of this benchmark
// ran with iterations=1 and NO warmup, so it timed exactly that setup
// transient and reported a meaningless "2× slower in parallel" number
// that sent the PR-2 investigation in the wrong direction.
const benchWarmupSteps = 25

// BenchmarkClusterStep times the cluster's two-phase tick on a
// 1,000-machine fleet at workers ∈ {1, 4, GOMAXPROCS} and persists the
// comparison to BENCH_cluster_step.json so successive PRs keep a
// performance trajectory. Alongside mean ns/op it records per-step
// p50/p95 (tail latency is what a negative-scaling bug actually shows
// up in) and allocations per step.
//
// CI runs this with -benchtime=60x and gates on speedup ≥ 1.0 at
// workers=4 plus an allocs/op ceiling; run it locally with:
//
//	go test -bench=BenchmarkClusterStep -benchtime=60x -run='^$' .
func BenchmarkClusterStep(b *testing.B) {
	machines := 1000
	if testing.Short() {
		machines = 100
	}
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 4 && n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchClusterStep(b, w, machines, 0)
		})
	}
}

// BenchmarkClusterStep10k is the scale row the per-PR CI job gates on:
// the same workload shape at 10,000 machines, workers=GOMAXPROCS.
// Skipped in -short mode.
func BenchmarkClusterStep10k(b *testing.B) {
	if testing.Short() {
		b.Skip("10k-machine row skipped in short mode")
	}
	benchClusterStep(b, runtime.GOMAXPROCS(0), 10_000, 0)
}

// BenchmarkClusterStep100k is the non-gating nightly scale row:
// 100,000 machines, workers=GOMAXPROCS, per-machine trace rings
// disabled (TraceCapacity -1) — at this fleet size the span rings, not
// the hot path, would dominate memory, and the row exists to measure
// stepping. The tracing_disabled field in the JSON records that.
// Skipped in -short mode.
func BenchmarkClusterStep100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-machine row skipped in short mode")
	}
	benchClusterStep(b, runtime.GOMAXPROCS(0), 100_000, -1)
}

func benchClusterStep(b *testing.B, workers, machines, traceCapacity int) {
	c := cluster.New(cluster.Config{
		Seed:              1,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		TraceCapacity:     traceCapacity,
		Params:            core.Params{MinSamplesPerTask: 8},
	})
	defer c.Close()
	defs, tree := cluster.WebSearchJob("websearch", machines, machines/5+1, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			b.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	if err := c.AddJob(cluster.QuietServiceJob("bigtable", machines, 0.8)); err != nil {
		b.Fatal(err)
	}
	if err := c.AddJob(cluster.BatchJob("logproc", machines, 0.5, model.PriorityBestEffort)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchWarmupSteps; i++ {
		c.Step()
	}

	b.ReportAllocs()
	durs := make([]time.Duration, 0, b.N)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		c.Step()
		durs = append(durs, time.Since(t0))
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)

	elapsed := b.Elapsed()
	if elapsed <= 0 || b.N == 0 {
		return
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	machPerSec := float64(machines) * float64(b.N) / elapsed.Seconds()
	b.ReportMetric(machPerSec, "machines/sec")
	b.ReportMetric(float64(percentile(durs, 95).Nanoseconds()), "p95-ns/step")
	recordClusterStep(clusterStepResult{
		Workers:         workers,
		Machines:        machines,
		Iterations:      b.N,
		NsPerOp:         float64(elapsed.Nanoseconds()) / float64(b.N),
		P50StepNs:       float64(percentile(durs, 50).Nanoseconds()),
		P95StepNs:       float64(percentile(durs, 95).Nanoseconds()),
		AllocsPerOp:     float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
		BytesPerOp:      float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
		MachinesPerSec:  machPerSec,
		TracingDisabled: traceCapacity < 0,
	})
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// clusterStepResult is one BenchmarkClusterStep* sub-benchmark outcome
// as persisted to BENCH_cluster_step.json.
type clusterStepResult struct {
	Workers        int     `json:"workers"`
	Machines       int     `json:"machines"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	P50StepNs      float64 `json:"p50_step_ns"`
	P95StepNs      float64 `json:"p95_step_ns"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	MachinesPerSec float64 `json:"machines_per_sec"`
	// TracingDisabled marks rows measured with TraceCapacity -1 (the
	// 100k row): comparable for stepping throughput, not for trace
	// overhead.
	TracingDisabled bool `json:"tracing_disabled,omitempty"`
}

// benchKey identifies one matrix cell: a (workers, machines) pair.
type benchKey struct{ workers, machines int }

var (
	benchStepMu      sync.Mutex
	benchStepResults = map[benchKey]clusterStepResult{}
)

// recordClusterStep keeps the highest-iteration run per matrix cell
// (the benchmark framework re-runs with growing b.N; the last, longest
// run is the most trustworthy number).
func recordClusterStep(r clusterStepResult) {
	benchStepMu.Lock()
	defer benchStepMu.Unlock()
	k := benchKey{r.Workers, r.Machines}
	if prev, ok := benchStepResults[k]; !ok || r.Iterations >= prev.Iterations {
		benchStepResults[k] = r
	}
}

// TestMain persists BENCH_cluster_step.json after a benchmark run that
// exercised BenchmarkClusterStep; plain `go test` runs write nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	writeClusterStepJSON()
	os.Exit(code)
}

func writeClusterStepJSON() {
	benchStepMu.Lock()
	defer benchStepMu.Unlock()
	if len(benchStepResults) == 0 {
		return
	}
	out := struct {
		SchemaVersion int `json:"schema_version"`
		GOMAXPROCS    int `json:"gomaxprocs"`
		// CPUs is the host's logical CPU count — GOMAXPROCS can be
		// forced above it, and a "parallel speedup" measured that way is
		// concurrency overhead, not parallelism. Readers should trust
		// Speedup only when CPUs covers the worker count.
		CPUs        int `json:"cpus"`
		WarmupSteps int `json:"warmup_steps"`
		// Results is the (workers, machines) matrix, machines-major.
		Results []clusterStepResult `json:"results"`
		// Speedup is the median step time at workers=1, machines=1000
		// over the median at workers=4 (the CI gate; the highest measured
		// worker count if 4 was not run) at the same fleet size — medians,
		// not the run means behind machines_per_sec, which one stalled
		// step can move. 0 when the 1k rows were not measured in this run.
		Speedup float64 `json:"speedup"`
	}{
		SchemaVersion: 3,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUs:          runtime.NumCPU(),
		WarmupSteps:   benchWarmupSteps,
	}
	var keys []benchKey
	for k := range benchStepResults {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].machines != keys[j].machines {
			return keys[i].machines < keys[j].machines
		}
		return keys[i].workers < keys[j].workers
	})
	for _, k := range keys {
		out.Results = append(out.Results, benchStepResults[k])
	}
	const speedupMachines = 1000
	gate := benchKey{4, speedupMachines}
	if _, ok := benchStepResults[gate]; !ok {
		gate.workers = 0
		for _, k := range keys {
			if k.machines == speedupMachines && k.workers > gate.workers {
				gate = k
			}
		}
	}
	base, okBase := benchStepResults[benchKey{1, speedupMachines}]
	if top, ok := benchStepResults[gate]; ok && okBase && gate.workers > 1 && top.P50StepNs > 0 {
		out.Speedup = base.P50StepNs / top.P50StepNs
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal BENCH_cluster_step.json: %v\n", err)
		return
	}
	if err := os.WriteFile("BENCH_cluster_step.json", append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write BENCH_cluster_step.json: %v\n", err)
	}
}
