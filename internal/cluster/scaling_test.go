package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// scalingRun builds the benchmark fleet (1000 machines, search tree +
// quiet service + best-effort batch), warms it past the placement
// transient, times `steps` Steps, and returns the steps-per-second
// throughput plus a JSON fingerprint of incidents, specs, and the
// structured event log.
func scalingRun(t *testing.T, workers, machines, warmup, steps int) (float64, []byte) {
	t.Helper()
	ev := obs.NewEventLog(1<<16, nil)
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:              1,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		Params:            core.Params{MinSamplesPerTask: 8},
		Registry:          reg,
		Events:            ev,
	})
	defer c.Close()
	defs, tree := WebSearchJob("websearch", machines, machines/5+1, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	if err := c.AddJob(QuietServiceJob("bigtable", machines, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(BatchJob("logproc", machines, 0.5, model.PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		c.Step()
	}
	start := time.Now()
	for i := 0; i < steps; i++ {
		c.Step()
	}
	elapsed := time.Since(start)

	fp := struct {
		Incidents []core.Incident
		Specs     []model.Spec
		Events    []obs.Event
	}{c.Incidents(), c.RecomputeSpecs(), ev.Recent(0, "")}
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return float64(steps) / elapsed.Seconds(), b
}

// TestParallelStepScaling is the tier-1 half of the regression test for
// the PR-2 negative-scaling bug (workers=GOMAXPROCS stepped 2× SLOWER
// than workers=1): on the 1000-machine benchmark fleet, the parallel
// run's fingerprint must be byte-identical to the serial run's. The
// throughput ratio is logged, not asserted — a wall-clock comparison
// cannot be green on every host — and is judged where timing is
// measured properly: cluster.parallel_speedup in the repository
// benchmark and the CI bench job's speedup gate.
//
// Skipped under -short and -race: two 1000-machine runs are a soak.
func TestParallelStepScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine soak; skipped under -short")
	}
	if raceEnabled {
		t.Skip("1000-machine soak; race-detector overhead makes it too slow")
	}
	workers := max(2, runtime.GOMAXPROCS(0))

	const machines, warmup, steps = 1000, 25, 40
	serialTPS, serialFP := scalingRun(t, 1, machines, warmup, steps)
	parTPS, parFP := scalingRun(t, workers, machines, warmup, steps)

	t.Logf("workers=1: %.1f steps/s, workers=%d: %.1f steps/s (%.2fx)",
		serialTPS, workers, parTPS, parTPS/serialTPS)
	if string(serialFP) != string(parFP) {
		t.Errorf("fingerprint differs between workers=1 and workers=%d\nserial:   %.200s…\nparallel: %.200s…",
			workers, serialFP, parFP)
	}
}

// TestStepWorkerCountThroughputMonotonicity is a cheaper companion that
// runs at every worker count the determinism suite uses and simply
// checks none of them CRASHES or deadlocks with the persistent pool —
// worker counts above the machine count and far above GOMAXPROCS
// included. No timing assertions, so it runs everywhere (including
// -short and -race).
func TestStepWorkerCountThroughputMonotonicity(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			c := New(Config{
				Seed: 9, Machines: 5, CPUsPerMachine: 8, Workers: w,
				Params: core.Params{MinSamplesPerTask: 5},
			})
			defer c.Close()
			if err := c.AddJob(QuietServiceJob("svc", 10, 0.6)); err != nil {
				t.Fatal(err)
			}
			c.Run(2 * time.Minute)
			if c.Now().Sub(c.cfg.Start) != 2*time.Minute {
				t.Errorf("cluster advanced %v, want 2m", c.Now().Sub(c.cfg.Start))
			}
		})
	}
}
