package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// managerFixture builds a manager with a victim job spec and two
// co-located suspect tasks whose usage histories the manager records.
func managerFixture(t *testing.T) (*Manager, *fakeCapper) {
	t.Helper()
	capper := newFakeCapper()
	m := NewManager("machine-1", DefaultParams(), capper)
	m.RegisterJob(victimJob)
	m.RegisterJob(model.Job{Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.RegisterJob(model.Job{Name: "bigtable", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction})
	m.UpdateSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300,
		CPIMean: 1.0, CPIStddev: 0.1,
	})
	return m, capper
}

// feed sends one minute-aligned sample for a task.
func feed(m *Manager, job model.JobName, idx, minute int, usage, cpi float64) *Incident {
	return m.Observe(model.Sample{
		Job:       job,
		Task:      model.TaskID{Job: job, Index: idx},
		Platform:  model.PlatformA,
		Timestamp: day0.Add(time.Duration(minute) * time.Minute),
		CPUUsage:  usage,
		CPI:       cpi,
		Machine:   "machine-1",
	})
}

func TestManagerEndToEndIncident(t *testing.T) {
	m, capper := managerFixture(t)
	events := obs.NewEventLog(64, nil)
	m.SetEvents(events)
	// Build up co-runner usage history: the antagonist is hot exactly
	// when the victim's CPI is high.
	var inc *Incident
	raised := 0
	for min := 0; min < 10; min++ {
		victimCPI := 1.0
		antagUsage := 0.2
		if min >= 4 { // interference starts at minute 4
			victimCPI = 2.5
			antagUsage = 4.0
		}
		feed(m, "mapreduce", 0, min, antagUsage, 1.5)
		feed(m, "bigtable", 0, min, 1.0, 0.9)
		if got := feed(m, "search", 0, min, 1.2, victimCPI); got != nil {
			raised++
			if inc == nil {
				inc = got // first incident: later rounds see the cap in place
			}
		}
	}
	if inc == nil {
		t.Fatal("no incident detected")
	}
	if inc.Victim != (model.TaskID{Job: "search", Index: 0}) {
		t.Errorf("victim = %v", inc.Victim)
	}
	if len(inc.Suspects) == 0 || inc.Suspects[0].Job != "mapreduce" {
		t.Fatalf("top suspect = %+v", inc.Suspects)
	}
	if inc.Decision.Action != ActionCap {
		t.Fatalf("decision = %+v", inc.Decision)
	}
	if q, ok := capper.quota(model.TaskID{Job: "mapreduce", Index: 0}); !ok || q != 0.1 {
		t.Errorf("cap = %v,%v", q, ok)
	}
	// The manager keeps no incident log: each incident is an event.
	if logged := len(events.Recent(0, "incident")); logged != raised {
		t.Errorf("%d incident events for %d incidents", logged, raised)
	}
}

func TestManagerNoIncidentWithoutAnomaly(t *testing.T) {
	m, _ := managerFixture(t)
	for min := 0; min < 10; min++ {
		feed(m, "mapreduce", 0, min, 3.0, 1.5)
		if inc := feed(m, "search", 0, min, 1.2, 1.05); inc != nil {
			t.Fatalf("incident on healthy CPI: %+v", inc)
		}
	}
}

func TestManagerAnalysisRateLimit(t *testing.T) {
	p := DefaultParams()
	p.AnalysisRateLimit = 10 * time.Minute // very coarse for the test
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	m.RegisterJob(victimJob)
	m.RegisterJob(model.Job{Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.UpdateSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.1,
	})
	incidents := 0
	for min := 0; min < 9; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		if inc := feed(m, "search", 0, min, 1.2, 3.0); inc != nil {
			incidents++
		}
	}
	// Anomalous from minute 2 onward (3 violations), but rate-limited
	// to one analysis per 10 minutes → exactly 1 incident.
	if incidents != 1 {
		t.Errorf("incidents = %d, want 1 under rate limit", incidents)
	}
}

func TestManagerAnalysisResumesAfterClockSkewBackwards(t *testing.T) {
	// A skew=MACHINE@-DUR fault steps the agent's clock backwards; the
	// rate limiter used to see a negative delta (always < the limit) and
	// suppress every analysis until the clock caught back up. A negative
	// delta must instead allow the analysis and reset the anchor.
	m, _ := managerFixture(t)
	// Minutes 0..5 forward: builds usage history and fires one incident
	// (anomalous from minute 2, rate limit 1s passes at minute scale).
	fired := 0
	for min := 0; min < 6; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		if inc := feed(m, "search", 0, min, 1.2, 3.0); inc != nil {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no incident before the skew; fixture broken")
	}
	// The clock steps back 30 minutes. Detector state is per-task series
	// keyed by timestamps, so re-drive the anomaly on the skewed clock:
	// a fresh victim task avoids out-of-order appends on the old series.
	skewBase := -30
	fired = 0
	for min := 0; min < 6; min++ {
		feed(m, "mapreduce", 1, skewBase+min, 4.0, 1.5)
		if inc := feed(m, "search", 1, skewBase+min, 1.2, 3.0); inc != nil {
			fired++
		}
	}
	if fired == 0 {
		t.Error("analyses never resumed after the clock went backwards")
	}
}

func TestManagerCapExpiryViaTick(t *testing.T) {
	m, capper := managerFixture(t)
	for min := 0; min < 6; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		feed(m, "search", 0, min, 1.2, 3.0)
	}
	target := model.TaskID{Job: "mapreduce", Index: 0}
	if _, ok := capper.quota(target); !ok {
		t.Fatal("no cap applied")
	}
	released := m.Tick(day0.Add(30 * time.Minute))
	if len(released) != 1 || released[0] != target {
		t.Errorf("released = %v", released)
	}
	if _, ok := capper.quota(target); ok {
		t.Error("still capped after Tick past expiry")
	}
}

func TestManagerTaskExitedClearsState(t *testing.T) {
	m, _ := managerFixture(t)
	task := model.TaskID{Job: "search", Index: 0}
	outlier := func(minute int) Assessment {
		return assess(m, sampleAt("search", 0, day0.Add(time.Duration(minute)*time.Minute), 1.2, 3.0))
	}
	outlier(0)
	outlier(1) // two flags: one short of anomalous
	if m.CPISeries(task) == nil {
		t.Fatal("series not recorded")
	}
	m.TaskExited(task)
	if m.CPISeries(task) != nil { // the usage series goes with it: one map entry
		t.Error("series not cleared")
	}
	// The flags went too: the task back needs three fresh outliers.
	for minute := 2; minute <= 4; minute++ {
		if a := outlier(minute); a.Anomalous != (minute == 4) {
			t.Errorf("re-entered task at its outlier %d: anomalous %v", minute-1, a.Anomalous)
		}
	}
}

func TestManagerUnknownVictimJobDefaultsProtected(t *testing.T) {
	// A victim whose job metadata never arrived is treated as
	// latency-sensitive (fail-safe: protecting is cheaper than paging).
	p := DefaultParams()
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	m.RegisterJob(model.Job{Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.UpdateSpec(model.Spec{
		Job: "mystery", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.1,
	})
	for min := 0; min < 8; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		feed(m, "mystery", 0, min, 1.2, 3.0)
	}
	if len(capper.caps) == 0 {
		t.Error("unknown victim job was not protected")
	}
}

// TestManagerObserveSteadyStateAllocatesNothing: once a task's CPI,
// usage and flag windows have filled, a sample that is not anomalous —
// normal or filtered, judged against a spec with an age — costs the
// manager no allocation, metrics on.
func TestManagerObserveSteadyStateAllocatesNothing(t *testing.T) {
	m, _ := managerFixture(t)
	m.SetMetrics(NewMetrics(obs.NewRegistry()))
	spec, _ := m.Spec(model.SpecKey{Job: "search", Platform: model.PlatformA})
	spec.UpdatedAt = day0
	m.UpdateSpec(spec)
	minute := 0
	next := func() {
		minute++
		usage := 1.2
		if minute%4 == 0 {
			usage = 0.1 // filtered
		}
		feed(m, "mapreduce", 0, minute, 2.0, 1.5) // no spec: recorded only
		if inc := feed(m, "search", 0, minute, usage, 1.05); inc != nil {
			t.Fatalf("incident on healthy CPI: %+v", inc)
		}
	}
	for minute < 3*int(m.params.LookBack()/time.Minute) {
		next()
	}
	if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
		t.Errorf("steady-state Observe allocates %.1f times per two samples", allocs)
	}
}

// TestManagerTaskTable: the manager is the machine's one task table.
// The set of jobs it runs, and the InterestVersion that follows that
// set, move only when a job gets its first registered task or loses its
// last; a registered task is no suspect before its first sample; a job
// known only from RegisterJob is not run here but still classes its
// observed tasks; and a job's spec_recv Name lasts while it has tasks.
func TestManagerTaskTable(t *testing.T) {
	batch := model.Job{Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch}
	search0, search1 := model.TaskID{Job: "search", Index: 0}, model.TaskID{Job: "search", Index: 1}
	mr0 := model.TaskID{Job: "mapreduce", Index: 0}

	t.Run("version", func(t *testing.T) {
		m := NewManager("m", DefaultParams(), newFakeCapper())
		version := m.InterestVersion()
		moved := func() bool {
			v := m.InterestVersion()
			if v < version {
				t.Fatalf("InterestVersion went back: %d after %d", v, version)
			}
			was := version
			version = v
			return v != was
		}
		count := func(job model.JobName) int {
			if j := m.jobs[job]; j != nil {
				return j.tasks
			}
			return 0
		}
		m.RegisterTask(search0, victimJob)
		if !moved() || !m.Runs("search") || count("search") != 1 {
			t.Error("a job's first task: the version stayed, or the job is not run here")
		}
		m.RegisterTask(search1, victimJob)
		if moved() || count("search") != 2 {
			t.Error("a second task of a job already here moved the version, or was not counted")
		}
		m.RegisterTask(search0, victimJob)
		if moved() || count("search") != 2 {
			t.Errorf("registering a task again moved the version or the count (%d)", count("search"))
		}
		m.TaskExited(search0)
		if moved() || !m.Runs("search") || count("search") != 1 {
			t.Error("one of two tasks left: the version moved, or the job is no longer run here")
		}
		m.TaskExited(search0)
		m.TaskExited(model.TaskID{Job: "ghost", Index: 3})
		if moved() || count("search") != 1 || count("ghost") != 0 {
			t.Error("an exit of a task not here moved the version or a count")
		}
		// A task only ever observed (replay's) has a record but no
		// registration: its exit moves nothing either.
		m.Observe(sampleAt("search", 7, day0, 1.2, 1.0))
		m.TaskExited(model.TaskID{Job: "search", Index: 7})
		if moved() || count("search") != 1 {
			t.Error("an exit of an observed, unregistered task moved the version or the count")
		}
		m.RegisterJob(model.Job{Name: "bigtable", Class: model.ClassLatencySensitive})
		if moved() || m.Runs("bigtable") {
			t.Error("a job installed by RegisterJob alone moved the version, or is run here")
		}
		m.RegisterTask(mr0, batch)
		if !moved() || !m.Runs("mapreduce") {
			t.Error("a second job's first task: the version stayed, or the job is not run here")
		}
		m.TaskExited(search1)
		if !moved() || m.Runs("search") {
			t.Error("a job's last task left: the version stayed, or the job is still run here")
		}
		m.TaskExited(mr0)
		if !moved() || m.Runs("mapreduce") {
			t.Error("the last job left: the version stayed, or the job is still run here")
		}
	})

	// The agent's join: one batch, one call, kept in order. Only the
	// samples of tasks registered and not exited survive.
	t.Run("join", func(t *testing.T) {
		m := NewManager("m", DefaultParams(), newFakeCapper())
		m.RegisterTask(search0, victimJob)
		m.RegisterTask(mr0, batch)
		m.TaskExited(mr0)
		m.Observe(sampleAt("search", 7, day0, 1.0, 1.2)) // observed, never registered
		m.RegisterJob(model.Job{Name: "bigtable", Class: model.ClassLatencySensitive})
		var ss []model.Sample
		for i, id := range []model.TaskID{search1, search0, mr0, {Job: "search", Index: 7}, {Job: "bigtable"}, search0} {
			ss = append(ss, sampleAt(id.Job, id.Index, day0.Add(time.Duration(i)*time.Minute), 1.0, 1.2))
		}
		want := []model.Sample{ss[1], ss[5]}
		if got := m.KeepRegistered(ss); !slices.Equal(got, want) {
			t.Errorf("kept %+v, want %v's two samples in order", got, search0)
		}
		if len(m.KeepRegistered(nil)) != 0 {
			t.Error("an empty batch kept a sample")
		}
	})

	t.Run("suspects", func(t *testing.T) {
		m, _ := managerFixture(t)
		// logs/0 is registered as a batch task but never sampled; the
		// mapreduce job is known only from the fixture's RegisterJob,
		// and its task is observed without being registered.
		idle := model.TaskID{Job: "logs", Index: 0}
		m.RegisterTask(idle, model.Job{Name: "logs", Class: model.ClassBatch, Priority: model.PriorityBestEffort})
		m.RegisterTask(search0, victimJob)
		var inc *Incident
		for min := 0; min < 10 && inc == nil; min++ {
			feed(m, "mapreduce", 0, min, 4.0, 1.5)
			inc = feed(m, "search", 0, min, 1.2, 3.0)
		}
		if inc == nil {
			t.Fatal("no incident")
		}
		if len(inc.Suspects) != 1 || inc.Suspects[0].Task != mr0 || inc.Suspects[0].Class != model.ClassBatch {
			t.Errorf("suspects %+v, want only mapreduce/0, batch", inc.Suspects)
		}
		if m.CPISeries(idle) != nil {
			t.Error("a registered task has a CPI series before its first sample")
		}
	})

	t.Run("spec name", func(t *testing.T) {
		m := NewManager("m", DefaultParams(), newFakeCapper())
		key := model.SpecKey{Job: "search", Platform: model.PlatformA}
		here := model.PlatformA
		if m.SpecName(key, here) == m.SpecName(key, here) {
			t.Error("a job with no tasks here kept its spec Name")
		}
		m.RegisterTask(search0, victimJob)
		name := m.SpecName(key, here)
		if name.String() != key.String() {
			t.Errorf("spec Name %q, want %q", name, key)
		}
		if m.SpecName(key, model.PlatformB) == name {
			t.Error("a machine of another platform kept the key's spec Name")
		}
		m.RegisterTask(search1, victimJob)
		m.TaskExited(search0)
		if m.SpecName(key, here) != name {
			t.Error("the spec Name changed while the job kept tasks here")
		}
		m.TaskExited(search1)
		m.RegisterTask(search0, victimJob)
		if m.SpecName(key, here) == name {
			t.Error("the job's spec Name outlived its last task here")
		}
	})
}
