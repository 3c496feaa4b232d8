// Forensics: offline analysis of CPI² incident logs (§5).
//
// CPI² logs every incident — victim, suspects, correlations, action —
// and job owners query the log with a SQL-like language (the paper
// used Dremel) to answer questions like "who are my job's worst
// antagonists?", then feed the answer back to the scheduler as
// anti-affinity constraints.
//
// This example runs a multi-tenant cluster long enough to accumulate
// incidents, then walks through the queries an operator would run,
// ending with the §5 operator actions: teaching the scheduler to keep
// the worst antagonist away from its victims, and migrating the
// offending tasks off their machines.
//
// Run with:
//
//	go run ./examples/forensics
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
)

func main() {
	// Two latency-sensitive jobs, then two differently aggressive batch
	// jobs landing on the warmed fleet.
	landed := true
	c, _, err := (&cluster.Scenario{
		Seed: 11, Warmup: 15 * time.Minute, MinSamplesPerTask: 8, ReportOnly: true,
		Fleet: cluster.Fleet{Machines: 16, CPUsPerMachine: 16},
		Workload: []cluster.WorkloadEntry{
			{Kind: "quiet_service", Name: "bigtable", Tasks: 12, CPU: 1.0},
			{Kind: "quiet_service", Name: "gmail-fe", Tasks: 12, CPU: 0.8},
			{Kind: "antagonist", Name: "video-transcode", Tasks: 8, CPU: 7},
			{Kind: "batch", Name: "log-compactor", Tasks: 8, CPU: 2, AfterWarmup: &landed},
		},
	}).Start(cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	c.Run(30 * time.Minute)

	store := c.Store()
	fmt.Printf("incident log: %d rows\n\n", store.Len())
	if store.Len() == 0 {
		log.Fatal("no incidents recorded")
	}

	queries := []struct {
		title string
		q     string
	}{
		{
			"most aggressive antagonists (fleet-wide)",
			"SELECT suspect_job, count(*), avg(correlation) FROM incidents " +
				"GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 5",
		},
		{
			"who is hurting bigtable?",
			"SELECT suspect_job, count(*) FROM incidents WHERE victim_job = 'bigtable' " +
				"GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 3",
		},
		{
			"worst single observations",
			"SELECT time, machine, victim_task, victim_cpi FROM incidents " +
				"ORDER BY victim_cpi DESC LIMIT 5",
		},
		{
			"high-confidence identifications (corr ≥ 0.5)",
			"SELECT count(*), avg(victim_cpi) FROM incidents WHERE correlation >= 0.5",
		},
	}
	for _, q := range queries {
		fmt.Printf("-- %s\n   %s\n", q.title, q.q)
		res, err := store.Query(q.q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.String())
		fmt.Println()
	}

	// Close the loop by hand (§5): take the top antagonist of bigtable
	// and register an anti-affinity constraint, then migrate the
	// offending tasks away from bigtable machines.
	res, err := store.Query("SELECT suspect_job, count(*) FROM incidents " +
		"WHERE victim_job = 'bigtable' GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 1")
	if err != nil || len(res.Rows) == 0 {
		log.Fatal("no antagonist found for bigtable")
	}
	worst := model.JobName(res.Rows[0][0].(string))
	fmt.Printf("registering anti-affinity: bigtable must avoid %q\n", worst)
	c.Scheduler().AvoidColocation("bigtable", worst)

	moved := 0
	for i := 0; i < 8; i++ {
		id := model.TaskID{Job: worst, Index: i}
		mach, ok := c.Scheduler().MachineOf(id)
		if !ok {
			continue
		}
		// Migrate only offenders sharing a machine with bigtable.
		shared := false
		for _, t := range c.Scheduler().TasksOn(mach) {
			if t.Job == "bigtable" {
				shared = true
				break
			}
		}
		if !shared {
			continue
		}
		if err := c.KillAndRestart(id); err == nil {
			moved++
		}
	}
	fmt.Printf("migrated %d %s tasks off bigtable machines\n", moved, worst)
	c.Run(10 * time.Minute)

	// With the antagonists gone, new bigtable incidents should dry up.
	res, err = store.Query("SELECT count(*) FROM incidents WHERE victim_job = 'bigtable'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total bigtable incidents at end of run: %v\n", res.Rows[0][0])
}
