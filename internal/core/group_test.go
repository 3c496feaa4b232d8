package core

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

// rotatorOwner is the take-turns schedule over each 12-minute round:
// rotator 0 runs on minutes 0–2, rotator 1 on 4–6, rotator 2 on 8–10,
// and nobody (-1) on the gap minutes 3, 7 and 11.
func rotatorOwner(min int) int {
	switch min % 12 {
	case 0, 1, 2:
		return 0
	case 4, 5, 6:
		return 1
	case 8, 9, 10:
		return 2
	default:
		return -1
	}
}

// takeTurnsScenario builds the §4.2 failure case: three batch tasks
// fill the cache in rotation (rotatorOwner). The victim hurts
// (CPI = painCPI) whenever any rotator runs and is healthy (CPI = 1.0)
// in the gaps. Each member's usage matches only its own third of the
// pain pattern — its individual correlation stays moderate — while the
// three usages summed reproduce the victim's CPI shape exactly.
func takeTurnsScenario(painCPI float64) (victim *timeseries.Series, suspects []SuspectInput) {
	victim = timeseries.New()
	series := []*timeseries.Series{timeseries.New(), timeseries.New(), timeseries.New()}
	for min := 0; min < 12; min++ {
		ts := day0.Add(time.Duration(min) * time.Minute)
		who := rotatorOwner(min)
		cpi := 1.0
		if who >= 0 {
			cpi = painCPI
		}
		_ = victim.Append(ts, cpi)
		for i, s := range series {
			u := 0.1
			if who == i {
				u = 4.0
			}
			_ = s.Append(ts, u)
		}
	}
	for i, s := range series {
		suspects = append(suspects, SuspectInput{
			Task:     model.TaskID{Job: "rotator", Index: i},
			Job:      "rotator",
			Class:    model.ClassBatch,
			Priority: model.PriorityBatch,
			Usage:    s,
		})
	}
	return victim, suspects
}

func TestGroupCorrelationBeatsIndividuals(t *testing.T) {
	victim, suspects := takeTurnsScenario(3.0)
	now := day0.Add(12 * time.Minute)

	group := FindAntagonistGroup(victim, suspects, now, 15*time.Minute, time.Minute, 4)
	if len(group.Members) != 3 {
		t.Fatalf("group = %+v, want all three rotators", group)
	}
	// Every member's individual Pearson r is moderate; the group's is
	// near-perfect (the sum reproduces the CPI shape).
	for _, m := range group.Members {
		if m.Correlation >= 0.5 {
			t.Errorf("member %v individually at %v, want moderate", m.Task, m.Correlation)
		}
	}
	if group.Correlation < 0.95 {
		t.Errorf("group corr = %v, want ≈1", group.Correlation)
	}
}

func TestFindAntagonistGroupDegenerate(t *testing.T) {
	empty := timeseries.New()
	g := FindAntagonistGroup(empty, nil, day0, 10*time.Minute, time.Minute, 4)
	if len(g.Members) != 0 || g.Correlation != 0 {
		t.Errorf("empty group = %+v", g)
	}
	// Victim data but no usable suspects.
	victim := buildSeries([]float64{3, 1, 3, 1}, time.Minute)
	g = FindAntagonistGroup(victim, []SuspectInput{{Task: model.TaskID{Job: "x"}, Usage: nil}},
		day0.Add(4*time.Minute), 10*time.Minute, time.Minute, 4)
	if len(g.Members) != 0 {
		t.Errorf("group from nil-usage suspects = %+v", g)
	}
	// Constant victim CPI: Pearson undefined → no group.
	flat := buildSeries([]float64{3, 3, 3, 3}, time.Minute)
	_, suspects := takeTurnsScenario(3.0)
	g = FindAntagonistGroup(flat, suspects, day0.Add(4*time.Minute), 10*time.Minute, time.Minute, 4)
	if g.Correlation > 0.01 {
		t.Errorf("flat-CPI group corr = %v, want ≈0", g.Correlation)
	}
	// maxMembers floor.
	vv, ss := takeTurnsScenario(3.0)
	g = FindAntagonistGroup(vv, ss, day0.Add(12*time.Minute), 15*time.Minute, time.Minute, 0)
	if len(g.Members) > 1 {
		t.Errorf("maxMembers=0 should clamp to 1, got %d", len(g.Members))
	}
}

func TestFindAntagonistGroupRespectsMaxMembers(t *testing.T) {
	victim, suspects := takeTurnsScenario(3.0)
	now := day0.Add(12 * time.Minute)
	g := FindAntagonistGroup(victim, suspects, now, 15*time.Minute, time.Minute, 2)
	if len(g.Members) > 2 {
		t.Errorf("group size %d exceeds max 2", len(g.Members))
	}
}

// TestFindAntagonistGroupIgnoresSuspectOrder: the manager offers
// suspects in map order, so co-tenants tied on r must be chosen by
// task name, not by position.
func TestFindAntagonistGroupIgnoresSuspectOrder(t *testing.T) {
	victim := buildSeries([]float64{3, 1, 3, 1, 3, 1}, time.Minute)
	mk := func(job model.JobName, index int, usage ...float64) SuspectInput {
		return SuspectInput{Task: model.TaskID{Job: job, Index: index}, Job: job, Usage: buildSeries(usage, time.Minute)}
	}
	x1, x2 := mk("x", 1, 2, 0, 2, 0, 2, 0), mk("x", 2, 2, 0, 2, 0, 2, 0)
	y0 := mk("y", 0, 1, 1, 2, 0, 1, 1)
	for _, in := range [][]SuspectInput{{x1, x2, y0}, {x2, x1, y0}} {
		g := FindAntagonistGroup(victim, in, day0.Add(6*time.Minute), 10*time.Minute, time.Minute, 1)
		if len(g.Members) != 1 || g.Members[0].Task != x1.Task {
			t.Errorf("suspects %v %v %v: group %+v, want x/1", in[0].Task, in[1].Task, in[2].Task, g.Members)
		}
	}
}

func TestEnforcerDecideGroup(t *testing.T) {
	capper := newFakeCapper()
	e := NewEnforcer(DefaultParams(), capper)
	group := GroupSuspect{
		Correlation: 0.6,
		Members: []Suspect{
			{Task: model.TaskID{Job: "rotator", Index: 0}, Job: "rotator", Class: model.ClassBatch, Priority: model.PriorityBatch},
			{Task: model.TaskID{Job: "rotator", Index: 1}, Job: "rotator", Class: model.ClassBatch, Priority: model.PriorityBestEffort},
			{Task: lsTask, Job: "bigtable", Class: model.ClassLatencySensitive},
			{Task: victimTask, Job: "search"}, // never cap the victim
		},
	}
	ds := e.DecideGroup(day0, victimTask, victimJob, group)
	if len(ds) != 2 {
		t.Fatalf("decisions = %+v, want 2 (only throttleable members)", ds)
	}
	for _, d := range ds {
		if d.Action != ActionCap {
			t.Errorf("decision = %+v", d)
		}
	}
	// Priority-dependent quotas apply per member.
	if q, _ := capper.quota(model.TaskID{Job: "rotator", Index: 0}); q != 0.1 {
		t.Errorf("batch member quota = %v", q)
	}
	if q, _ := capper.quota(model.TaskID{Job: "rotator", Index: 1}); q != 0.01 {
		t.Errorf("best-effort member quota = %v", q)
	}
	// All expire together via Tick.
	released := e.Tick(day0.Add(5 * time.Minute))
	if len(released) != 2 {
		t.Errorf("released = %v", released)
	}
}

func TestEnforcerDecideGroupReportOnly(t *testing.T) {
	p := DefaultParams()
	p.ReportOnly = true
	capper := newFakeCapper()
	e := NewEnforcer(p, capper)
	group := GroupSuspect{
		Correlation: 0.5,
		Members: []Suspect{
			{Task: batchTask, Job: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch},
		},
	}
	ds := e.DecideGroup(day0, victimTask, victimJob, group)
	if len(ds) != 1 || ds[0].Action != ActionReport {
		t.Errorf("decisions = %+v", ds)
	}
	if len(capper.caps) != 0 {
		t.Error("caps applied in report-only mode")
	}
}

func TestEnforcerDecideGroupSkipsCapped(t *testing.T) {
	capper := newFakeCapper()
	e := NewEnforcer(DefaultParams(), capper)
	member := Suspect{Task: batchTask, Job: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch}
	group := GroupSuspect{Correlation: 0.5, Members: []Suspect{member}}
	if ds := e.DecideGroup(day0, victimTask, victimJob, group); len(ds) != 1 {
		t.Fatalf("first round = %+v", ds)
	}
	if ds := e.DecideGroup(day0.Add(time.Minute), victimTask, victimJob, group); len(ds) != 0 {
		t.Errorf("second round re-capped: %+v", ds)
	}
}

// rotatorManager feeds 24 minutes of the take-turns schedule through a
// journalled manager: three rotators cause mild per-minute pain (CPI
// 1.5 against threshold 1.2) that no single suspect explains well
// enough to reach the 0.35 §4.2 bar.
func rotatorManager(groupDetection bool) (*Manager, *fakeCapper, *MemCapJournal) {
	p := DefaultParams()
	p.GroupDetection = groupDetection
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	journal := &MemCapJournal{}
	m.SetJournal(journal)
	m.RegisterJob(victimJob)
	m.RegisterJob(model.Job{Name: "rotator", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.UpdateSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.1,
	})
	for min := 0; min < 24; min++ {
		ts := day0.Add(time.Duration(min) * time.Minute)
		who := rotatorOwner(min)
		for i := 0; i < 3; i++ {
			u := 0.1
			if who == i {
				u = 4.0
			}
			m.Observe(model.Sample{
				Job: "rotator", Task: model.TaskID{Job: "rotator", Index: i},
				Platform: model.PlatformA, Timestamp: ts, CPUUsage: u, CPI: 1.5,
			})
		}
		cpi := 1.0
		if who >= 0 {
			cpi = 1.5
		}
		m.Observe(model.Sample{
			Job: "search", Task: model.TaskID{Job: "search", Index: 0},
			Platform: model.PlatformA, Timestamp: ts, CPUUsage: 1.2, CPI: cpi,
		})
	}
	return m, capper, journal
}

func TestManagerGroupDetectionEndToEnd(t *testing.T) {
	// The plain enforcer does nothing on the rotator fixture; the group
	// hypothesis catches all three once GroupDetection is on.
	run := func(groupDetection bool) (caps int, sawGroup bool) {
		m, capper, _ := rotatorManager(groupDetection)
		for _, inc := range m.Incidents() {
			if inc.Group == nil {
				continue
			}
			sawGroup = true
			for _, d := range inc.GroupDecisions {
				if d.Action != ActionCap {
					t.Errorf("group decision = %+v", d)
				}
			}
		}
		return len(capper.caps), sawGroup
	}
	caps, sawGroup := run(false)
	if caps != 0 || sawGroup {
		t.Fatalf("without group detection: caps=%d group=%v; want none", caps, sawGroup)
	}
	caps, sawGroup = run(true)
	if !sawGroup {
		t.Fatal("group never detected")
	}
	if caps < 2 {
		t.Errorf("caps = %d, want the group capped", caps)
	}
}

// TestManagerGroupCapsListedOnce: the headline group cap is not
// repeated in GroupDecisions, so counting ActionCap across Decision and
// GroupDecisions, as the checks harness and the chaos tests do, counts
// each applied cap once.
func TestManagerGroupCapsListedOnce(t *testing.T) {
	m, _, journal := rotatorManager(true)
	listed := 0
	for _, inc := range m.Incidents() {
		for _, d := range append([]Decision{inc.Decision}, inc.GroupDecisions...) {
			if d.Action == ActionCap {
				listed++
			}
		}
	}
	applied := 0
	for _, en := range journal.Entries() {
		if en.Op == CapOpCap {
			applied++
		}
	}
	if applied == 0 || listed != applied {
		t.Errorf("decisions list %d caps; the journal records %d applied", listed, applied)
	}
}
