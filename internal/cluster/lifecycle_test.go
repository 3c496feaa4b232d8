package cluster

import (
	"sort"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// churnJob is a RestartOnExit batch job whose tasks finish after a
// random few minutes of work and are placed again, so tasks keep
// leaving and landing all run long.
func churnJob(name string, tasks int) JobDef {
	def := BatchJob(name, tasks, 0.5, model.PriorityBatch)
	def.RestartOnExit = true
	def.NewWorkload = func(_ model.TaskID, rng *stats.RNG) machine.Workload {
		b := workload.NewBatch(0.5, 4, 2.6)
		b.TotalTx = float64(500 + rng.Stream("total").Intn(3000))
		return b
	}
	return def
}

// TestFleetLifecycleInvariant drives every way a task enters or leaves
// a machine — RestartOnExit churn, a production arrival that evicts
// batch work, a machine crash, a KillAndRestart and an agent restart —
// and checks after every Step, on every machine, that the scheduler,
// the machine and the agent agree on what runs there: the scheduler's
// committed CPU equals the sum of the resident tasks' CPU requests, its
// TasksOn equals the machine's Tasks as a set, and the agent wants the
// spec of exactly the jobs with a task resident (WantSpec is false for
// a job that ran there earlier and has no task left).
func TestFleetLifecycleInvariant(t *testing.T) {
	const machines, cpus = 8, 16
	c := New(Config{
		Seed: 7, Machines: machines, CPUsPerMachine: cpus, PlatformBFraction: 0.25,
		Faults: &FaultPlan{
			Crashes:  []CrashEvent{{At: 6 * time.Minute, Machine: machineName(3)}},
			Restarts: []RestartEvent{{At: 9 * time.Minute, Machine: machineName(5)}},
		},
	})
	t.Cleanup(c.Close)

	// seen[i] holds every job that has had a task on machine i.
	seen := make([]map[model.JobName]bool, machines)
	for i := range seen {
		seen[i] = make(map[model.JobName]bool)
	}
	departed := 0 // checks of a job that has left its machine
	check := func() {
		t.Helper()
		for i := 0; i < machines; i++ {
			name := machineName(i)
			m, a := c.Machine(name), c.Agent(name)
			onMachine := make(map[model.TaskID]bool)
			resident := make(map[model.JobName]bool)
			var reqs []float64
			for _, id := range m.Tasks() {
				onMachine[id] = true
				resident[id.Job] = true
				seen[i][id.Job] = true
				// The scheduler's request rule: CPUPerTask, 1 when unset.
				r := a.Manager().Job(id.Job).CPUPerTask
				if r <= 0 {
					r = 1
				}
				reqs = append(reqs, r)
			}
			// Summed in ascending order, as the scheduler sums; the
			// capacity is a power of two, so Commitment × capacity is
			// the scheduler's sum exactly.
			sort.Float64s(reqs)
			var placed float64
			for _, r := range reqs {
				placed += r
			}
			if committed := c.Scheduler().Commitment(name) * cpus; committed != placed {
				t.Fatalf("%s at %s: scheduler commits %v CPUs, resident tasks request %v", name, c.Now(), committed, placed)
			}
			booked := c.Scheduler().TasksOn(name)
			mismatch := len(booked) != len(onMachine)
			for _, id := range booked {
				mismatch = mismatch || !onMachine[id]
			}
			if mismatch {
				t.Fatalf("%s at %s: scheduler books %v, machine runs %v", name, c.Now(), booked, m.Tasks())
			}
			for job := range seen[i] {
				if !resident[job] {
					departed++
				}
				if want := a.WantSpec(model.SpecKey{Job: job, Platform: m.Platform()}); want != resident[job] {
					t.Fatalf("%s at %s: agent WantSpec(%s) = %v, job resident = %v",
						name, c.Now(), job, want, resident[job])
				}
			}
		}
	}
	step := func(d time.Duration) {
		t.Helper()
		for end := c.Now().Add(d); c.Now().Before(end); {
			c.Step()
			check()
		}
	}

	for _, def := range []JobDef{
		BatchJob("filler", machines*5, 3, model.PriorityBestEffort),
		churnJob("churn", machines*2),
		QuietServiceJob("bigtable", machines*2, 0.8),
	} {
		if err := c.AddJob(def); err != nil {
			t.Fatal(err)
		}
	}
	check()
	step(2 * time.Minute)

	// A production arrival pushes machines past the overcommit ceiling;
	// the batch work preempted to make room is placed elsewhere.
	_, before := c.Stats()
	if err := c.AddJob(QuietServiceJob("frontend", machines/2, 8)); err != nil {
		t.Fatal(err)
	}
	if _, after := c.Stats(); after == before {
		t.Fatal("the production arrival evicted no batch work")
	}
	check()
	step(8 * time.Minute)

	victim := model.TaskID{Job: "bigtable", Index: 0}
	from, _ := c.Scheduler().MachineOf(victim)
	if err := c.KillAndRestart(victim); err != nil {
		t.Fatal(err)
	}
	if to, _ := c.Scheduler().MachineOf(victim); to == from {
		t.Fatalf("KillAndRestart left %v on %s", victim, from)
	}
	check()
	step(5 * time.Minute)

	st := c.FaultStats()
	if st.CrashesApplied != 1 || st.TasksLost == 0 {
		t.Errorf("crash: applied %d, lost %d tasks", st.CrashesApplied, st.TasksLost)
	}
	if st.RestartsApplied != 1 {
		t.Errorf("agent restarts applied = %d, want 1", st.RestartsApplied)
	}
	exits, restarts := c.Stats()
	if exits <= int64(st.TasksLost) || restarts == 0 {
		t.Errorf("no RestartOnExit churn: %d exits (%d from the crash), %d restarts", exits, st.TasksLost, restarts)
	}
	if departed == 0 {
		t.Error("no job ever left a machine; the WantSpec check is vacuous")
	}
}
