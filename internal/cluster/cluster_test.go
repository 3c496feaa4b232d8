package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

func smallConfig(seed int64) Config {
	return Config{
		Seed: seed, Machines: 4, CPUsPerMachine: 16,
		// The paper's 100-samples/task gate needs ~100 minutes of
		// sim-time; tests use a lower gate to keep runs short.
		Params: core.Params{MinSamplesPerTask: 5},
	}
}

func TestNewClusterShape(t *testing.T) {
	c := New(Config{Seed: 1, Machines: 6, CPUsPerMachine: 8, PlatformBFraction: 0.5})
	if c.Scheduler().NumMachines() != 6 {
		t.Errorf("machines = %d", c.Scheduler().NumMachines())
	}
	platforms := map[model.Platform]int{}
	for i := 0; i < 6; i++ {
		m := c.Machine(machineName(i))
		if m == nil {
			t.Fatalf("machine %d missing", i)
		}
		platforms[m.Platform()]++
	}
	if platforms[model.PlatformB] != 3 || platforms[model.PlatformA] != 3 {
		t.Errorf("platform mix = %v", platforms)
	}
}

func machineName(i int) string {
	return map[int]string{0: "machine-0000", 1: "machine-0001", 2: "machine-0002",
		3: "machine-0003", 4: "machine-0004", 5: "machine-0005"}[i]
}

func TestAddJobPlacesAllTasks(t *testing.T) {
	c := New(smallConfig(2))
	def := QuietServiceJob("svc", 8, 0.5)
	if err := c.AddJob(def); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for i := 0; i < 8; i++ {
		if _, ok := c.MachineOf(model.TaskID{Job: "svc", Index: i}); ok {
			placed++
		}
	}
	if placed != 8 {
		t.Errorf("placed = %d", placed)
	}
	if err := c.AddJob(def); err == nil {
		t.Error("duplicate job accepted")
	}
	if err := c.AddJob(JobDef{}); err == nil {
		t.Error("empty job accepted")
	}
}

func TestRunProducesSamplesAndSpecs(t *testing.T) {
	c := New(smallConfig(3))
	if err := c.AddJob(QuietServiceJob("svc", 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	c.Run(11 * time.Minute)
	received, _ := c.Bus().Stats()
	if received < 8*10 {
		t.Errorf("samples = %d, want ≥80", received)
	}
	specs := c.RecomputeSpecs()
	if len(specs) != 1 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Job != "svc" {
		t.Errorf("spec job = %s", specs[0].Job)
	}
	// CPI should be near the profile's base (machines are mostly idle).
	if specs[0].CPIMean < 0.7 || specs[0].CPIMean > 1.2 {
		t.Errorf("spec mean = %v, want ≈0.88", specs[0].CPIMean)
	}
}

func TestEndToEndIncidentAndCap(t *testing.T) {
	// One quiet service cluster; then a video-processing antagonist
	// lands and CPI² caps it.
	c := New(Config{Seed: 4, Machines: 2, CPUsPerMachine: 16,
		Params: core.Params{MinSamplesPerTask: 5}})
	if err := c.AddJob(QuietServiceJob("bigtable", 6, 1.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Antagonist arrives on every machine.
	if err := c.AddJob(AntagonistJob("video", 2, 8, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(15 * time.Minute)
	incs := c.Incidents()
	if len(incs) == 0 {
		t.Fatal("no incidents")
	}
	var saw bool
	for _, inc := range incs {
		if inc.Decision.Action == core.ActionCap && inc.Suspects[0].Job == "video" {
			saw = true
			break
		}
	}
	if !saw {
		t.Errorf("no cap of the video antagonist in %d incidents", len(incs))
	}
	if c.Store().Len() != len(incs) {
		t.Error("forensics store out of sync")
	}
}

func TestWebSearchJobWiring(t *testing.T) {
	c := New(Config{Seed: 5, Machines: 8, CPUsPerMachine: 16})
	defs, tree := WebSearchJob("websearch", 16, 4, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	c.Run(5 * time.Minute)
	// Find one leaf task's workload latency — reach through the machine.
	id := model.TaskID{Job: "websearch-leaf", Index: 0}
	m, ok := c.MachineOf(id)
	if !ok {
		t.Fatal("leaf not placed")
	}
	task := m.Task(id)
	st, ok := task.Workload.(*workload.SearchTask)
	if !ok {
		t.Fatalf("workload type %T", task.Workload)
	}
	if _, ticks := st.LatencyTotals(); ticks < 100 {
		t.Errorf("latency ticks = %d", ticks)
	}
}

func TestTaskExitAndRestart(t *testing.T) {
	c := New(smallConfig(6))
	// Finite batch tasks that complete in under a minute, with restart:
	// the cluster should keep re-placing them.
	def := BatchJob("finite", 2, 1, model.PriorityBatch)
	def.RestartOnExit = true
	def.NewWorkload = func(id model.TaskID, _ *stats.RNG) machine.Workload {
		b := workload.NewBatch(1, 4, 2.6)
		b.TotalTx = 100
		b.InstructionsPerTx = 1e9 // ≈2.6 tx/sec → done in ≈40s
		return b
	}
	if err := c.AddJob(def); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	exits, restarts := c.Stats()
	if exits < 2 {
		t.Errorf("exits = %d, want ≥2", exits)
	}
	if restarts < 2 {
		t.Errorf("restarts = %d, want ≥2", restarts)
	}
}

func TestKillAndRestart(t *testing.T) {
	c := New(smallConfig(7))
	if err := c.AddJob(AntagonistJob("video", 1, 2, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	id := model.TaskID{Job: "video", Index: 0}
	before, ok := c.Scheduler().MachineOf(id)
	if !ok {
		t.Fatal("not placed")
	}
	if err := c.KillAndRestart(id); err != nil {
		t.Fatal(err)
	}
	after, ok := c.Scheduler().MachineOf(id)
	if !ok || after == before {
		t.Errorf("migration: %s → %s", before, after)
	}
	// The task actually runs on the new machine.
	m := c.Machine(after)
	if m.Task(id) == nil {
		t.Error("task not installed on new machine")
	}
	if c.Machine(before).Task(id) != nil {
		t.Error("task still on old machine")
	}
	if err := c.KillAndRestart(model.TaskID{Job: "ghost"}); err == nil {
		t.Error("migrating unknown job accepted")
	}
}

func TestAutoAvoid(t *testing.T) {
	// §9 automation: repeated caps of the same (victim, antagonist)
	// job pair teach the scheduler an anti-affinity constraint. Two
	// machines force the antagonist to co-locate with its victims.
	c := New(Config{
		Seed: 9, Machines: 2, CPUsPerMachine: 16,
		Params:             core.Params{MinSamplesPerTask: 5},
		AutoAvoidThreshold: 2,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", 6, 1.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 2, 8, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Minute)
	pairs, _ := c.AutoActions()
	if pairs == 0 {
		t.Fatal("no anti-affinity pairs registered")
	}
	if !c.Scheduler().Avoids("bigtable", "video") {
		t.Error("scheduler not taught the antagonist pair")
	}
}

func TestAutoMigrate(t *testing.T) {
	// §9 automation: a persistently capped antagonist is killed and
	// restarted on a different machine.
	c := New(Config{
		Seed: 10, Machines: 2, CPUsPerMachine: 16,
		Params:               core.Params{MinSamplesPerTask: 5},
		AutoMigrateAfterCaps: 2,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", 6, 1.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 1, 8, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(45 * time.Minute)
	_, migrations := c.AutoActions()
	if migrations == 0 {
		t.Fatal("no automatic migrations")
	}
	if _, ok := c.Scheduler().MachineOf(model.TaskID{Job: "video", Index: 0}); !ok {
		t.Fatal("antagonist lost after migration")
	}
}

func TestPreemptionReplacesEvictedBatch(t *testing.T) {
	// No overcommit headroom: a production job's arrival preempts batch
	// tasks, which the cluster re-places elsewhere.
	c := New(Config{Seed: 12, Machines: 3, CPUsPerMachine: 8, Overcommit: 1.0,
		Params: core.Params{MinSamplesPerTask: 5}})
	if err := c.AddJob(BatchJob("filler", 6, 4, model.PriorityBestEffort)); err != nil {
		t.Fatal(err) // 24 CPU of batch: the cluster is full
	}
	if err := c.AddJob(QuietServiceJob("prod", 2, 4)); err != nil {
		t.Fatal(err)
	}
	// Both production tasks placed; any evicted batch that could not be
	// re-placed is simply gone (capacity math: 8 CPU of prod displaces
	// 2 filler tasks with nowhere to go).
	for i := 0; i < 2; i++ {
		if _, ok := c.MachineOf(model.TaskID{Job: "prod", Index: i}); !ok {
			t.Errorf("prod/%d not placed", i)
		}
	}
	placedFiller := 0
	for i := 0; i < 6; i++ {
		if _, ok := c.MachineOf(model.TaskID{Job: "filler", Index: i}); ok {
			placedFiller++
		}
	}
	if placedFiller != 4 {
		t.Errorf("filler tasks remaining = %d, want 4 (2 displaced for good)", placedFiller)
	}
	// The sim keeps running consistently after the shuffle.
	c.Run(2 * time.Minute)
	if c.Now().Sub(time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)) != 2*time.Minute {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestCatalogJobsRunnable(t *testing.T) {
	// The catalog entries not exercised elsewhere in this package:
	// MapReduceJob and BimodalJob place and run.
	c := New(smallConfig(13))
	if err := c.AddJob(MapReduceJob("mr", 4, 2, workload.ReactLameDuck)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(BimodalJob("bimodal", 3)); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Minute)
	id := model.TaskID{Job: "mr", Index: 0}
	a, ok := c.AgentOf(id)
	if !ok || a == nil {
		t.Fatal("AgentOf failed")
	}
	if c.Agent("machine-0000") == nil {
		t.Error("Agent accessor failed")
	}
	if c.Agent("nope") != nil || func() bool { _, ok := c.AgentOf(model.TaskID{Job: "ghost"}); return ok }() {
		t.Error("unknown lookups should fail")
	}
	if ScientificSimProfile().DefaultCPI <= 0 {
		t.Error("ScientificSimProfile malformed")
	}
}

func TestCrashMachine(t *testing.T) {
	c := New(smallConfig(11))
	def := BatchJob("mr", 8, 1, model.PriorityBatch)
	def.RestartOnExit = true
	if err := c.AddJob(def); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(QuietServiceJob("svc", 4, 0.5)); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Minute)

	victimMachine := "machine-0000"
	before := len(c.Scheduler().TasksOn(victimMachine))
	if before == 0 {
		t.Fatal("crash target is empty")
	}
	lost, restarted, err := c.CrashMachine(victimMachine)
	if err != nil {
		t.Fatal(err)
	}
	if lost != before {
		t.Errorf("lost = %d, want %d", lost, before)
	}
	// Every RestartOnExit batch task is running again somewhere —
	// possibly on the rebooted machine itself, which is empty and
	// therefore attractive to the scheduler.
	for i := 0; i < 8; i++ {
		id := model.TaskID{Job: "mr", Index: i}
		name, ok := c.Scheduler().MachineOf(id)
		if !ok {
			t.Errorf("task %v not restarted", id)
			continue
		}
		if c.Machine(name).Task(id) == nil {
			t.Errorf("task %v booked on %s but not installed", id, name)
		}
	}
	if restarted == 0 {
		t.Error("no restarts despite RestartOnExit")
	}
	// svc tasks that lived on the crashed machine (no restart policy)
	// are gone for good.
	svcAlive := 0
	for i := 0; i < 4; i++ {
		if _, ok := c.Scheduler().MachineOf(model.TaskID{Job: "svc", Index: i}); ok {
			svcAlive++
		}
	}
	if svcAlive == 4 {
		t.Error("no svc task died in the crash")
	}
	// The machine keeps working after the "reboot": new placements can
	// land and the cluster keeps running.
	c.Run(2 * time.Minute)
	if _, _, err := c.CrashMachine("ghost"); err == nil {
		t.Error("crashing an unknown machine accepted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64) {
		c := New(Config{Seed: 42, Machines: 3, CPUsPerMachine: 16})
		if err := c.AddJob(QuietServiceJob("svc", 6, 0.5)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddJob(AntagonistJob("video", 2, 6, model.PriorityBatch)); err != nil {
			t.Fatal(err)
		}
		c.Run(8 * time.Minute)
		received, _ := c.Bus().Stats()
		specs := c.RecomputeSpecs()
		var mean float64
		if len(specs) > 0 {
			mean = specs[0].CPIMean
		}
		return received, mean
	}
	r1, m1 := run()
	r2, m2 := run()
	if r1 != r2 || m1 != m2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", r1, m1, r2, m2)
	}
}
