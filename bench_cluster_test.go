package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The first Steps of a fresh cluster pay one-time costs — scratch
// buffers growing to the resident task count, sampler windows opening,
// bounded histories filling — that have nothing to do with steady-state
// stepping. (The first incarnation of this benchmark ran with
// iterations=1 and NO warm-up, so it timed exactly that transient and
// reported a meaningless "2× slower in parallel" number.) A fixed
// warm-up does not reach steady state either: allocations per Step kept
// falling for hundreds of Steps after it, so the allocation gate
// measured growth. warmUp therefore steps in blocks of benchWarmupBlock
// until a block allocates no less per Step than the block before it,
// and never for more than benchWarmupMaxSteps; each row records the
// warm-up it ran.
const (
	benchWarmupBlock    = 50
	benchWarmupMaxSteps = 1000
)

// BenchmarkClusterStep times the cluster's two-phase tick on a
// 1,000-machine fleet at workers ∈ {1, 4, GOMAXPROCS} and persists the
// comparison to BENCH_cluster_step.json so successive PRs keep a
// performance trajectory. Alongside mean ns/op it records per-step
// p50/p95 (tail latency is what a negative-scaling bug actually shows
// up in) and allocations per step.
//
// Each row also records its set-up (the wall time of Scenario.Start)
// and the machines placement examined per task. CI runs this with
// -benchtime=60x and gates on speedup ≥ 1.0 at workers=4 plus an
// allocs/op ceiling; run it locally with:
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
			benchClusterStep(b, w, machines)
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
	benchClusterStep(b, runtime.GOMAXPROCS(0), 10_000)
}

// BenchmarkClusterStep100k is the non-gating nightly scale row:
// 100,000 machines, workers=GOMAXPROCS, traced like every other row
// (span stores keep per-sample spans for the correlation look-back, so
// their memory does not grow with the run). Skipped in -short mode.
func BenchmarkClusterStep100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-machine row skipped in short mode")
	}
	benchClusterStep(b, runtime.GOMAXPROCS(0), 100_000)
}

// benchScenario is the fleet every BenchmarkClusterStep row runs: one
// websearch leaf, one bigtable task and one logproc batch task per
// machine, plus the websearch mixers and roots.
func benchScenario(machines int) *cluster.Scenario {
	return &cluster.Scenario{
		Seed: 1, MinSamplesPerTask: 8,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 16, PlatformBFraction: 0.3},
		Workload: []cluster.WorkloadEntry{
			{Kind: "websearch", Name: "websearch", Leaves: machines, Mixers: machines/5 + 1, Roots: 2},
			{Kind: "quiet_service", Name: "bigtable", Tasks: machines, CPU: 0.8},
			{Kind: "batch", Name: "logproc", Tasks: machines, CPU: 0.5},
		},
	}
}

// warmUp steps c in blocks until allocations per Step stop falling
// (see benchWarmupBlock) and returns how many Steps it ran.
func warmUp(c *cluster.Cluster) int {
	var ms runtime.MemStats
	prev := uint64(math.MaxUint64)
	steps := 0
	for steps < benchWarmupMaxSteps {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < benchWarmupBlock; i++ {
			c.Step()
		}
		steps += benchWarmupBlock
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		if allocs >= prev {
			break
		}
		prev = allocs
	}
	return steps
}

func benchClusterStep(b *testing.B, workers, machines int) {
	t0 := time.Now()
	c, _, err := benchScenario(machines).Start(cluster.Config{Workers: workers})
	setup := time.Since(t0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	warmup := warmUp(c)

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
	placements, probes := c.Scheduler().Probes()
	machPerSec := float64(machines) * float64(b.N) / elapsed.Seconds()
	b.ReportMetric(machPerSec, "machines/sec")
	b.ReportMetric(float64(percentile(durs, 95).Nanoseconds()), "p95-ns/step")
	b.ReportMetric(float64(setup.Nanoseconds()), "setup-ns")
	recordClusterStep(clusterStepResult{
		Workers:            workers,
		Machines:           machines,
		Iterations:         b.N,
		WarmupSteps:        warmup,
		SetupNs:            float64(setup.Nanoseconds()),
		PlaceProbesPerTask: float64(probes) / float64(placements),
		NsPerOp:            float64(elapsed.Nanoseconds()) / float64(b.N),
		P50StepNs:          float64(percentile(durs, 50).Nanoseconds()),
		P95StepNs:          float64(percentile(durs, 95).Nanoseconds()),
		AllocsPerOp:        float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N),
		BytesPerOp:         float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N),
		MachinesPerSec:     machPerSec,
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
	Workers    int `json:"workers"`
	Machines   int `json:"machines"`
	Iterations int `json:"iterations"`
	// WarmupSteps is how many Steps warmUp ran before timing.
	WarmupSteps int `json:"warmup_steps"`
	// SetupNs is the wall time of Scenario.Start: fleet construction
	// and placement of every task.
	SetupNs float64 `json:"setup_ns"`
	// PlaceProbesPerTask is the machines placement examined per
	// placement, over set-up and every Step of the run: a count, the
	// same on any host.
	PlaceProbesPerTask float64 `json:"place_probes_per_task"`
	NsPerOp            float64 `json:"ns_per_op"`
	P50StepNs          float64 `json:"p50_step_ns"`
	P95StepNs          float64 `json:"p95_step_ns"`
	AllocsPerOp        float64 `json:"allocs_per_op"`
	BytesPerOp         float64 `json:"bytes_per_op"`
	MachinesPerSec     float64 `json:"machines_per_sec"`
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
		CPUs int `json:"cpus"`
		// Results is the (workers, machines) matrix, machines-major.
		Results []clusterStepResult `json:"results"`
		// Speedup is the median step time at workers=1, machines=1000
		// over the median at workers=4 (the CI gate; the highest measured
		// worker count if 4 was not run) at the same fleet size — medians,
		// not the run means behind machines_per_sec, which one stalled
		// step can move. 0 when the 1k rows were not measured in this run.
		Speedup float64 `json:"speedup"`
	}{
		SchemaVersion: 4,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUs:          runtime.NumCPU(),
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

// TestPlacementProbesPerTask builds the BenchmarkClusterStep fleet at
// 2,000 machines and requires placement to examine at most two machines
// per task, where a full scan examines all 2,000. It counts; it reads
// no clock.
func TestPlacementProbesPerTask(t *testing.T) {
	const machines = 2000
	c, _, err := benchScenario(machines).Start(cluster.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	placements, probes := c.Scheduler().Probes()
	if placements < 3*machines {
		t.Fatalf("%d placements, want at least %d", placements, 3*machines)
	}
	if per := float64(probes) / float64(placements); per > 2 {
		t.Errorf("%d probes over %d placements = %.2f per task, want ≤ 2", probes, placements, per)
	}
}
