// Mapreduce: the antagonist's side of the story (§6.2).
//
// Batch frameworks already tolerate stragglers, which is why CPI² can
// cap their workers with a clear conscience. This example runs three
// MapReduce workers with the three cap reactions the paper's case
// studies document, makes each one an antagonist of a latency-
// sensitive service, and reports how they ride out the throttling:
//
//   - a tolerant worker just runs slowly and resumes;
//   - a lame-duck worker balloons to ~80 threads while capped (trying
//     to offload its shards), then idles at 2 threads for a while
//     (Case 5 / Figure 12);
//   - an exit-on-repeat worker survives one capping episode and
//     terminates during the second, hoping for a better machine
//     (Case 6 / Figure 13).
//
// Run with:
//
//	go run ./examples/mapreduce
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/workload"
)

// scenario runs one victim + one MapReduce worker on a private machine
// under full CPI² control and narrates the worker's behaviour. It
// returns the worker and the largest thread count the machine saw it
// run with in any tick.
func scenario(name string, reaction workload.CapReaction, minutes int) (*workload.MapReduce, int) {
	fmt.Printf("=== %s ===\n", name)
	m := machine.New(name, interference.DefaultMachine(model.PlatformA), 16, nil)
	a := agent.New(m, core.DefaultParams(), nil)

	victimJob := model.Job{Name: "service", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	victim := model.TaskID{Job: "service", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2,
	}
	if err := m.AddTask(victim, vprof, &workload.Steady{CPU: 1.2, Threads: 12}); err != nil {
		log.Fatal(err)
	}
	a.RegisterTask(victim, victimJob)
	a.DeliverSpec(model.Spec{
		Job: "service", Platform: m.Platform(),
		NumSamples: 100000, NumTasks: 200, CPIMean: 1.0, CPIStddev: 0.1,
	})

	mrJob := model.Job{Name: "mr", Class: model.ClassBatch, Priority: model.PriorityBatch}
	worker := workload.NewMapReduce(5.0, reaction)
	worker.LameDuckFor = 10 * time.Minute
	mrID := model.TaskID{Job: "mr", Index: 0}
	mrProf := &interference.Profile{
		DefaultCPI: 1.4, CacheFootprint: 6, MemBandwidth: 5,
		Sensitivity: 0.1, BaseL3MPKI: 10,
	}
	if err := m.AddTask(mrID, mrProf, worker); err != nil {
		log.Fatal(err)
	}
	a.RegisterTask(mrID, mrJob)

	now := time.Date(2011, 8, 4, 16, 0, 0, 0, time.UTC)
	lastState := ""
	peakThreads := 0
	for s := 0; s < minutes*60; s++ {
		mr := m.Task(mrID) // before the tick: the worker may exit in it
		_, exited := m.Tick(now, time.Second)
		if mr != nil && mr.Last().Threads > peakThreads {
			peakThreads = mr.Last().Threads
		}
		for _, id := range exited {
			a.TaskExited(id) // releases its cap; its job's spec is no longer wanted
		}
		a.Tick(now)
		now = now.Add(time.Second)
		if s%60 != 59 {
			continue
		}
		state := "running"
		if m.Task(mrID) == nil {
			state = "EXITED (rescheduling elsewhere)"
		} else if m.IsCapped(mrID) {
			state = "hard-capped"
		} else if worker.InLameDuck() {
			state = "lame-duck mode"
		}
		_, threads := worker.Demand(now)
		if state != lastState {
			fmt.Printf("  t=%2dmin  %-34s threads=%-3d episodes=%d work=%.0f CPU-sec\n",
				s/60+1, state, threads, worker.CapEpisodes(), worker.Work())
			lastState = state
		}
		if m.Task(mrID) == nil {
			break
		}
	}
	fmt.Println()
	return worker, peakThreads
}

func main() {
	tolerant, _ := scenario("tolerate: slow down, resume", workload.ReactTolerate, 15)
	if tolerant.CapEpisodes() == 0 {
		log.Fatal("tolerant worker was never capped")
	}

	_, maxThreads := scenario("lame duck: offload, then idle (Case 5)", workload.ReactLameDuck, 25)
	if maxThreads < 70 {
		log.Fatalf("lame-duck worker peaked at %d threads; expected a burst to ≈80 while capped", maxThreads)
	}
	fmt.Printf("lame-duck worker peaked at %d threads while capped (paper: ≈80)\n\n", maxThreads)

	quitter, _ := scenario("exit on second cap (Case 6)", workload.ReactExit, 40)
	if !quitter.Done() {
		log.Fatal("exit-reaction worker should have terminated")
	}
	fmt.Printf("the exiting worker endured %d capping episodes before quitting (paper: 2)\n",
		quitter.CapEpisodes())
}
