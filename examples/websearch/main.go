// Websearch: protecting a serving tree's tail latency.
//
// This example builds the paper's motivating workload — a three-tier
// web-search serving tree (leaf / intermediate / root) under diurnal
// query load — and shows the end-user-visible effect of CPU
// performance interference and of CPI²'s response:
//
//  1. baseline: healthy root latency;
//  2. interference: a MapReduce job lands on the leaf machines and the
//     root's tail latency degrades, even though the root itself is fine
//     (its latency is set by the slowest leaves — §2's discarded-reply
//     problem);
//  3. protection: CPI² detects the leaf-level anomalies, caps the
//     MapReduce workers, and latency recovers.
//
// Run with:
//
//	go run ./examples/websearch
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// rootLatency returns a meter of the root's mean reported latency: each
// call returns the mean since the previous call, the difference of the
// root task's cumulative latency totals across the interval.
func rootLatency(c *cluster.Cluster) func() float64 {
	var lastSum float64
	var lastTicks int
	return func() float64 {
		id := model.TaskID{Job: "websearch-root", Index: 0}
		m, ok := c.MachineOf(id)
		if !ok {
			return 0
		}
		sum, ticks := m.Task(id).Workload.(*workload.SearchTask).LatencyTotals()
		mean := 0.0
		if ticks > lastTicks {
			mean = (sum - lastSum) / float64(ticks-lastTicks)
		}
		lastSum, lastTicks = sum, ticks
		return mean
	}
}

func main() {
	c := cluster.New(cluster.Config{
		Seed:           7,
		Machines:       24,
		CPUsPerMachine: 16,
		Params:         core.Params{MinSamplesPerTask: 8},
	})
	defs, tree := cluster.WebSearchJob("websearch", 48, 8, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			log.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })

	fmt.Println("phase 1: healthy baseline, learning specs…")
	if _, err := cluster.WarmUpSpecs(c, 15*time.Minute); err != nil {
		log.Fatal(err)
	}
	meter := rootLatency(c)
	meter()
	c.Run(5 * time.Minute)
	base := meter()
	fmt.Printf("  root latency: %.1f ms\n", base)

	fmt.Println("\nphase 2: MapReduce job lands on the leaf machines…")
	if err := c.AddJob(cluster.MapReduceJob("mapreduce", 24, 6, workload.ReactTolerate)); err != nil {
		log.Fatal(err)
	}

	// Per-minute timeline: watch latency degrade, CPI² cap the
	// workers, latency recover, the caps expire, and the cycle repeat.
	fmt.Println("\n  min  root-latency  capped-MR-tasks")
	var best, worst float64 = 1e12, 0
	for minute := 1; minute <= 14; minute++ {
		c.Run(time.Minute)
		lat := meter()
		capped := 0
		for i := 0; i < 24; i++ {
			id := model.TaskID{Job: "mapreduce", Index: i}
			if m, ok := c.MachineOf(id); ok && m.IsCapped(id) {
				capped++
			}
		}
		fmt.Printf("  %3d  %8.1f ms  %6d\n", minute, lat, capped)
		if lat < best {
			best = lat
		}
		if lat > worst {
			worst = lat
		}
	}
	fmt.Printf("\n  baseline %.1f ms; worst under interference %.1f ms (%.1fx); "+
		"best under caps %.1f ms (%.2fx)\n", base, worst, worst/base, best, best/base)

	caps := 0
	for _, inc := range c.Incidents() {
		if inc.Decision.Action == core.ActionCap {
			caps++
		}
	}
	fmt.Printf("\n%d incidents, %d caps applied\n", len(c.Incidents()), caps)
	if caps == 0 {
		log.Fatal("expected CPI² to cap the MapReduce workers")
	}

	// The per-job view an operator would pull up.
	res, err := c.Store().Query(
		"SELECT victim_job, count(*) FROM incidents GROUP BY victim_job ORDER BY count(*) DESC LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("victims by job:")
	fmt.Print(res.String())
}
