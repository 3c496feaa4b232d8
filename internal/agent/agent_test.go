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
	"repro/internal/perfcnt"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

var t0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

var (
	searchJob = model.Job{Name: "search", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	mrJob     = model.Job{Name: "mr", Class: model.ClassBatch, Priority: model.PriorityBatch}
	// rigJobs is the scheduler's view of the rigs' jobs, which a
	// restarted agent re-registers the machine's tasks under.
	rigJobs = map[model.JobName]model.Job{searchJob.Name: searchJob, mrJob.Name: mrJob}
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
	return newRigWith(t, core.DefaultParams(), sink)
}

// newRigWith is newRig with the agent's params p.
func newRigWith(t *testing.T, p core.Params, sink pipeline.SampleSink) (*Agent, *machine.Machine, model.TaskID) {
	t.Helper()
	m := machine.New("m1", interference.DefaultMachine(model.PlatformA), 8, nil)
	a := New(m, p, sink)
	vid := model.TaskID{Job: "search", Index: 0}
	err := m.AddTask(vid, victimProfile(), &workload.Steady{CPU: 1.2, Threads: 16})
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
	if err := m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40}); err != nil {
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
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
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

// TestAgentWantSpec: the agent wants the specs its manager's jobs have
// on its own machine's platform only; which jobs those are, and when
// the interest version moves, is core's TestManagerTaskTable.
func TestAgentWantSpec(t *testing.T) {
	a, _, _ := newRig(t, nil)
	if !a.WantSpec(model.SpecKey{Job: "search", Platform: model.PlatformA}) {
		t.Error("agent should want its own job's spec")
	}
	if a.WantSpec(model.SpecKey{Job: "search", Platform: model.PlatformB}) {
		t.Error("agent wants wrong-platform spec")
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
				got, ok := a.Manager().Spec(spec.Key())
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
	_ = m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40})
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
	_ = m.AddTask(id, antagonistProfile(), &workload.Steady{CPU: 1, Threads: 2})
	runSim(a, m, t0, 130)
	received, _ := bus.Stats()
	if received != 0 {
		t.Errorf("samples for unregistered task: %d", received)
	}
}

// recordingSink keeps every sample published to it.
type recordingSink struct{ samples []model.Sample }

func (r *recordingSink) Publish(samples []model.Sample) error {
	r.samples = append(r.samples, samples...)
	return nil
}

// TestAgentSkipsUnjoinedMeasurements: a measurement joins to a task
// only through the manager's table. The counters of a task registered
// and then exited, of a task placed but never registered, and of IDs
// never placed nor registered yield no sample: nothing is quarantined,
// observed or published for them.
func TestAgentSkipsUnjoinedMeasurements(t *testing.T) {
	sink := &recordingSink{}
	a, m, vid := newRig(t, sink)
	aid, unreg := model.TaskID{Job: "mr", Index: 0}, model.TaskID{Job: "mr", Index: 1}
	for _, id := range []model.TaskID{aid, unreg} {
		if err := m.AddTask(id, antagonistProfile(), &workload.Steady{CPU: 1, Threads: 2}); err != nil {
			t.Fatal(err)
		}
	}
	a.RegisterTask(aid, mrJob)
	a.TaskExited(aid) // the machine still counts its cgroup
	// IDs no task here has: each counts as the victim does, so a join
	// would make a valid sample of it.
	a.readCounters = func(s *perfcnt.Snapshot) {
		m.ReadCounters(s)
		c, _ := m.TaskCounters(vid)
		for _, id := range []model.TaskID{{Job: "search", Index: 1}, {Job: "searc"}, {Job: "search/0"}, {Job: "ghost", Index: 7}} {
			s.Append(id, c)
		}
	}
	runSim(a, m, t0, 190)
	if len(sink.samples) != 3 {
		t.Errorf("%d samples published over three windows, want the victim's 3", len(sink.samples))
	}
	for _, s := range sink.samples {
		if s.Task != vid {
			t.Errorf("published a sample of %v", s.Task)
		}
	}
	if q := a.Validator().Quarantine.Total(); q != 0 {
		t.Errorf("%d samples quarantined", q)
	}
	if a.Manager().CPISeries(aid) != nil || a.Manager().CPISeries(unreg) != nil {
		t.Error("the exited or the unregistered task was observed")
	}
	if s := a.Manager().CPISeries(vid); s == nil || s.Len() != 3 {
		t.Error("the victim's three samples were not observed")
	}
}
