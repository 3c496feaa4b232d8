package agent

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

var t0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

var (
	searchJob = model.Job{Name: "search", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	mrJob     = model.Job{Name: "mr", Class: model.ClassBatch, Priority: model.PriorityBatch}
)

func victimProfile() *interference.Profile {
	return &interference.Profile{DefaultCPI: 1.0, CacheFootprint: 1, MemBandwidth: 0.5, Sensitivity: 1.2, BaseL3MPKI: 2}
}

func antagonistProfile() *interference.Profile {
	return &interference.Profile{DefaultCPI: 1.5, CacheFootprint: 10, MemBandwidth: 8, Sensitivity: 0.2, BaseL3MPKI: 12}
}

// installSearchSpec gives the agent a robust spec matching the
// victim's uncontended CPI.
func installSearchSpec(a *Agent) {
	a.DeliverSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300,
		CPIMean: 1.0, CPIStddev: 0.08,
	})
}

// newRig builds a machine+agent with a victim search task.
func newRig(t *testing.T, sink pipeline.SampleSink) (*Agent, *machine.Machine, model.TaskID) {
	t.Helper()
	m := machine.New("m1", interference.DefaultMachine(model.PlatformA), 8, nil)
	a := New(m, core.DefaultParams(), sink)
	vid := model.TaskID{Job: "search", Index: 0}
	err := m.AddTask(vid, searchJob, victimProfile(), &workload.Steady{CPU: 1.2, Threads: 16})
	if err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(vid, searchJob)
	return a, m, vid
}

// runSim advances machine and agent together, one second at a time.
func runSim(a *Agent, m *machine.Machine, start time.Time, seconds int) []core.Incident {
	var incidents []core.Incident
	now := start
	for s := 0; s < seconds; s++ {
		m.Tick(now, time.Second)
		incidents = append(incidents, a.Tick(now)...)
		now = now.Add(time.Second)
	}
	return incidents
}

func TestAgentSamplesAndPublishes(t *testing.T) {
	bus := pipeline.NewBus(core.NewSpecBuilder(core.DefaultParams()))
	a, m, _ := newRig(t, bus)
	runSim(a, m, t0, 130)
	received, dropped := bus.Stats()
	if received < 2 {
		t.Errorf("published samples = %d, want ≥2 (two windows)", received)
	}
	if dropped != 0 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestAgentDetectsAndCapsAntagonist(t *testing.T) {
	a, m, vid := newRig(t, nil)
	installSearchSpec(a)

	// Quiet first few minutes (healthy baseline), then the antagonist
	// arrives and hammers the cache.
	runSim(a, m, t0, 180)
	aid := model.TaskID{Job: "mr", Index: 0}
	if err := m.AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40}); err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(aid, mrJob)

	// Advance second by second until the first incident fires.
	now := t0.Add(180 * time.Second)
	var inc *core.Incident
	for s := 0; s < 900 && inc == nil; s++ {
		m.Tick(now, time.Second)
		if got := a.Tick(now); len(got) > 0 {
			inc = &got[0]
		}
		now = now.Add(time.Second)
	}
	if inc == nil {
		t.Fatal("no incidents despite sustained interference")
	}
	if inc.Victim != vid {
		t.Errorf("victim = %v", inc.Victim)
	}
	if len(inc.Suspects) == 0 || inc.Suspects[0].Task != aid {
		t.Fatalf("top suspect = %+v", inc.Suspects)
	}
	if inc.Decision.Action != core.ActionCap {
		t.Fatalf("decision = %+v", inc.Decision)
	}
	if !m.IsCapped(aid) {
		t.Error("antagonist not actually capped on the machine")
	}

	// The cap expires after 5 minutes of agent ticks; a re-cap needs 3
	// fresh violations (≥3 more minutes), so just past expiry the task
	// must be uncapped.
	runSim(a, m, now, 302)
	if m.IsCapped(aid) {
		t.Error("cap never expired")
	}
}

func TestAgentVictimCPIRecoversUnderCap(t *testing.T) {
	a, m, vid := newRig(t, nil)
	installSearchSpec(a)
	runSim(a, m, t0, 120)
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	runSim(a, m, t0.Add(120*time.Second), 900)

	cpiSeries := a.Manager().CPISeries(vid)
	if cpiSeries == nil || cpiSeries.Len() < 10 {
		t.Fatal("no victim CPI history")
	}
	// Find max CPI (during interference) and min CPI after capping
	// within the post-antagonist period.
	vals := cpiSeries.Values()
	var maxCPI, minAfter float64
	maxCPI = 0
	minAfter = 1e9
	for _, v := range vals[len(vals)/3:] {
		if v > maxCPI {
			maxCPI = v
		}
		if v < minAfter {
			minAfter = v
		}
	}
	if maxCPI < 1.3 {
		t.Errorf("interference never visible: max CPI %v", maxCPI)
	}
	if minAfter > 1.2 {
		t.Errorf("victim never recovered: min CPI %v", minAfter)
	}
}

func TestAgentWantSpec(t *testing.T) {
	a, _, vid := newRig(t, nil)
	search := model.SpecKey{Job: "search", Platform: model.PlatformA}
	if !a.WantSpec(search) {
		t.Error("agent should want its own job's spec")
	}
	if a.WantSpec(model.SpecKey{Job: "search", Platform: model.PlatformB}) {
		t.Error("agent wants wrong-platform spec")
	}
	if a.WantSpec(model.SpecKey{Job: "absent", Platform: model.PlatformA}) {
		t.Error("agent wants spec for absent job")
	}

	// The version moves with the set of jobs, not with the tasks in it.
	version := a.InterestVersion()
	moved := func() bool {
		v := a.InterestVersion()
		if v < version {
			t.Fatalf("InterestVersion went back: %d after %d", v, version)
		}
		was := version
		version = v
		return v != was
	}
	second := model.TaskID{Job: "search", Index: 1}
	a.RegisterTask(second, searchJob)
	if moved() {
		t.Error("a second task of a job already here moved the version")
	}
	a.RegisterTask(vid, searchJob)
	if moved() {
		t.Error("registering a task again moved the version")
	}
	a.TaskExited(vid)
	if moved() || !a.WantSpec(search) {
		t.Error("one of two tasks left: the version moved, or the spec is no longer wanted")
	}
	a.TaskExited(vid)
	if moved() {
		t.Error("an exit of a task not here moved the version")
	}
	mr := model.TaskID{Job: "mr", Index: 0}
	a.RegisterTask(mr, mrJob)
	if !moved() || !a.WantSpec(model.SpecKey{Job: "mr", Platform: model.PlatformA}) {
		t.Error("a job's first task: the version stayed, or the spec is not wanted")
	}
	a.TaskExited(second)
	if !moved() || a.WantSpec(search) {
		t.Error("a job's last task left: the version stayed, or the spec is still wanted")
	}
	a.TaskExited(mr)
	if !moved() || a.WantSpec(model.SpecKey{Job: "mr", Platform: model.PlatformA}) {
		t.Error("the last job left: the version stayed, or its spec is still wanted")
	}
}

// TestAgentsOnBusMatchScan registers and exits tasks on real agents
// between pushes — some while a push is running, for the race detector —
// and checks what the bus's interest index delivers against asking every
// agent about every spec.
func TestAgentsOnBusMatchScan(t *testing.T) {
	jobs := []model.Job{searchJob, mrJob, {Name: "ads", Class: model.ClassLatencySensitive}, {Name: "logs", Class: model.ClassBatch}}
	var specs []model.Spec
	for _, j := range jobs {
		for _, p := range []model.Platform{model.PlatformA, model.PlatformB} {
			specs = append(specs, model.Spec{Job: j.Name, Platform: p, NumSamples: 1000, NumTasks: 10, CPIMean: 1.5, CPIStddev: 0.1})
		}
	}
	bus := pipeline.NewBus(core.NewSpecBuilder(core.DefaultParams()))
	agents := make([]*Agent, 6)
	for i := range agents {
		platform := model.PlatformA
		if i%3 == 2 {
			platform = model.PlatformB
		}
		m := machine.New(fmt.Sprintf("m%d", i), interference.DefaultMachine(platform), 8, nil)
		agents[i] = New(m, core.DefaultParams(), nil)
		bus.Watch(agents[i])
	}
	rng := rand.New(rand.NewSource(1))
	churn := func(rng *rand.Rand) {
		a, j := agents[rng.Intn(len(agents))], jobs[rng.Intn(len(jobs))]
		id := model.TaskID{Job: j.Name, Index: rng.Intn(3)}
		if rng.Intn(2) == 0 {
			a.RegisterTask(id, j)
		} else {
			a.TaskExited(id)
		}
	}
	for round := 0; round < 200; round++ {
		for i := rng.Intn(4); i > 0; i-- {
			churn(rng)
		}
		// A push with churn under it: it may serve either state, and must
		// leave the index right for the quiet push that follows.
		done := make(chan struct{})
		go func(seed int64) {
			defer close(done)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5; i++ {
				churn(rng)
			}
		}(int64(round))
		bus.Push(specs)
		<-done

		at := t0.Add(time.Duration(round+1) * time.Minute)
		for i := range specs {
			specs[i].UpdatedAt = at
		}
		bus.Push(specs)
		for i, a := range agents {
			for _, spec := range specs {
				got, ok := a.Manager().Detector().Spec(spec.Key())
				if fresh := ok && got.UpdatedAt.Equal(at); fresh != a.WantSpec(spec.Key()) {
					t.Fatalf("round %d: agent %d wants %v: %v, was pushed it: %v", round, i, spec.Key(), !fresh, fresh)
				}
			}
		}
	}
}

func TestAgentTaskExited(t *testing.T) {
	a, m, vid := newRig(t, nil)
	runSim(a, m, t0, 70)
	a.TaskExited(vid)
	if a.WantSpec(model.SpecKey{Job: "search", Platform: model.PlatformA}) {
		t.Error("agent still wants spec after task exit")
	}
	if a.Manager().CPISeries(vid) != nil {
		t.Error("manager state survived task exit")
	}
}

func TestAgentNoSinkStillDetects(t *testing.T) {
	// Pipeline down: local detection must still work (sink == nil).
	a, m, _ := newRig(t, nil)
	installSearchSpec(a)
	aid := model.TaskID{Job: "mr", Index: 0}
	_ = m.AddTask(aid, mrJob, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
	a.RegisterTask(aid, mrJob)
	incidents := runSim(a, m, t0, 700)
	if len(incidents) == 0 {
		t.Error("no incidents without a sink")
	}
}

func TestAgentUnregisteredTaskSamplesSkipped(t *testing.T) {
	// A task placed on the machine but never registered with the agent
	// produces no samples (and no crash).
	bus := pipeline.NewBus(core.NewSpecBuilder(core.DefaultParams()))
	m := machine.New("m1", interference.DefaultMachine(model.PlatformA), 8, nil)
	a := New(m, core.DefaultParams(), bus)
	id := model.TaskID{Job: "stealth", Index: 0}
	_ = m.AddTask(id, mrJob, antagonistProfile(), &workload.Steady{CPU: 1, Threads: 2})
	runSim(a, m, t0, 130)
	received, _ := bus.Stats()
	if received != 0 {
		t.Errorf("samples for unregistered task: %d", received)
	}
}
