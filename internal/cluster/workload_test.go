package cluster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// workloadStreamGoldenSHA256 is the SHA-256 of workloadStreamRun's
// incident records and spec table, computed while the workloads still
// recorded per-tick telemetry series. Deleting those series had to leave
// every seeded draw in place, and so must every later change to a
// workload.
const workloadStreamGoldenSHA256 = "2475d28ce362262ea0e76ecac55a44c1f913c5e05d735653a6f87e249c78479c"

// TestWorkloadStreamPinned: a seeded fleet running a search job, a batch
// job and a MapReduce job, then hit by antagonists, reproduces a pinned
// hash of its incidents and specs. TestTopologyEquivalence's scenario
// runs no search job, so this is the test that notices a draw added to
// or removed from a search task's seeded streams — SearchTask.Deliver's
// otherwise unused load-curve read is one such draw.
func TestWorkloadStreamPinned(t *testing.T) {
	c := New(Config{
		Seed:              20130415,
		Machines:          40,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Params:            core.Params{MinSamplesPerTask: 5},
	})
	t.Cleanup(c.Close)
	defs, tree := WebSearchJob("websearch", 40, 9, 2, c.RNG())
	c.OnTick(func(time.Time) { tree.EndTick() })
	defs = append(defs,
		BatchJob("logproc", 40, 0.5, model.PriorityBestEffort),
		MapReduceJob("mapreduce", 20, 3, workload.ReactLameDuck))
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, 6*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 15, 7, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Minute)
	if len(c.Incidents()) == 0 || len(c.AllSpecs()) == 0 {
		t.Fatalf("%d incidents, %d specs: the comparison is vacuous", len(c.Incidents()), len(c.AllSpecs()))
	}
	if got := incidentsSpecsSHA256(t, c); got != workloadStreamGoldenSHA256 {
		t.Errorf("incidents+specs hash %s, want %s (%d incidents)", got, workloadStreamGoldenSHA256, len(c.Incidents()))
	}
}

// TestFleetAllocBudget: once warm, stepping a fleet allocates a small
// fixed amount per Step. Workloads keep cumulative totals, not per-tick
// histories, so nothing a fleet allocates grows with simulated time.
// Bytes, not timings, so it gates on any host.
func TestFleetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const (
		machines = 200
		budget   = 12 << 10 // bytes per Step
	)
	c := New(Config{
		Seed:              1,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           1,
		TraceCapacity:     -1,
	})
	t.Cleanup(c.Close)
	defs, tree := WebSearchJob("websearch", machines, machines/5+1, 2, c.RNG())
	c.OnTick(func(time.Time) { tree.EndTick() })
	defs = append(defs,
		QuietServiceJob("bigtable", machines, 0.8),
		BatchJob("logproc", machines, 0.5, model.PriorityBestEffort))
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: every scratch buffer and per-task table reaches its
	// steady size.
	c.Run(2 * time.Minute)

	const steps = 3 * 60 // whole simulated minutes: each holds one sampling round
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		c.Step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	t.Logf("%d B allocated per Step on %d machines", perStep, machines)
	if perStep > budget {
		t.Errorf("%d B allocated per Step, budget %d", perStep, budget)
	}
}
