// Quickstart: the smallest end-to-end CPI² scenario.
//
// A 10-machine simulated cluster runs a latency-sensitive service.
// CPI² learns the service's CPI spec from its task population. Then a
// cache-hammering batch job lands, the victim's CPI blows through its
// 2σ threshold, the antagonist-correlation analysis names the culprit,
// and the enforcer hard-caps it — after which the victim recovers.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
)

func main() {
	sc := cluster.Scenario{
		Seed:   42,
		Warmup: 15 * time.Minute,
		// Quick spec bootstrap for the demo: the paper's gate of 100
		// samples/task needs ~100 minutes of data; we lower it so the
		// demo warms up in simulated minutes.
		MinSamplesPerTask: 8,
		Fleet:             cluster.Fleet{Machines: 10, CPUsPerMachine: 16},
		Workload: []cluster.WorkloadEntry{
			// A well-behaved latency-sensitive service: 30 identical tasks.
			{Kind: "quiet_service", Name: "frontend", Tasks: 30, CPU: 1.0},
			// The antagonist arrives after the warm-up: one heavy
			// video-processing task per machine, dragging a large working
			// set through the shared cache.
			{Kind: "antagonist", Name: "video-processing", Tasks: 10, CPU: 8},
		},
	}

	fmt.Println("warming up: learning the frontend's CPI spec from its tasks…")
	c, warm, err := sc.Start(cluster.Config{})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range warm.Specs {
		fmt.Printf("  spec %-12s CPI %.2f ± %.2f  (%d tasks, %d samples)\n",
			s.Job, s.CPIMean, s.CPIStddev, s.NumTasks, s.NumSamples)
	}

	fmt.Println("\nantagonist lands: video-processing batch on every machine…")
	c.Run(12 * time.Minute)

	incidents := c.Incidents()
	if len(incidents) == 0 {
		log.Fatal("no incidents detected — something is off")
	}
	fmt.Printf("\nCPI² raised %d incidents; the first:\n", len(incidents))
	inc := incidents[0]
	fmt.Printf("  victim    %v   CPI %.2f (threshold %.2f)\n", inc.Victim, inc.VictimCPI, inc.Threshold)
	for i, s := range inc.Suspects {
		if i == 3 {
			break
		}
		fmt.Printf("  suspect   %-22v corr %.2f (%s)\n", s.Task, s.Correlation, s.Class)
	}
	fmt.Printf("  decision  %s %v (quota %.2f CPU-sec/sec): %s\n",
		inc.Decision.Action, inc.Decision.Target, inc.Decision.Quota, inc.Decision.Reason)

	// Watch the victim recover while the cap holds.
	c.Run(4 * time.Minute)
	victim := inc.Victim
	agent, ok := c.AgentOf(victim)
	if !ok {
		log.Fatalf("victim %v vanished", victim)
	}
	series := agent.Manager().CPISeries(victim)
	pts := series.Window(c.Now().Add(-3*time.Minute), c.Now())
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	fmt.Printf("\nvictim CPI while the antagonist is capped: %.2f (was %.2f at detection)\n",
		sum/float64(len(pts)), inc.VictimCPI)

	// Forensics: what were the worst antagonists, fleet-wide?
	res, err := c.Store().Query(
		"SELECT suspect_job, count(*), avg(correlation) FROM incidents " +
			"GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nforensics: most-reported antagonists")
	fmt.Print(res.String())
}
