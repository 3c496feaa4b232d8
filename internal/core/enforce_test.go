package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// fakeCapper records cap/uncap calls. failOn makes Cap fail for a
// task; failUncaps makes the next N Uncap calls (any task) fail, the
// way a wedged cgroup writeback would.
type fakeCapper struct {
	mu         sync.Mutex
	caps       map[model.TaskID]float64
	failOn     map[model.TaskID]bool
	failUncaps int
	uncapTried int
}

func newFakeCapper() *fakeCapper {
	return &fakeCapper{caps: make(map[model.TaskID]float64), failOn: make(map[model.TaskID]bool)}
}

func (f *fakeCapper) Cap(task model.TaskID, quota float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failOn[task] {
		return errors.New("cap failed")
	}
	f.caps[task] = quota
	return nil
}

func (f *fakeCapper) Uncap(task model.TaskID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.uncapTried++
	if f.failUncaps > 0 {
		f.failUncaps--
		return errors.New("uncap failed")
	}
	delete(f.caps, task)
	return nil
}

func (f *fakeCapper) quota(task model.TaskID) (float64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q, ok := f.caps[task]
	return q, ok
}

var (
	victimTask = model.TaskID{Job: "search", Index: 3}
	victimJob  = model.Job{Name: "search", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	batchTask  = model.TaskID{Job: "mapreduce", Index: 7}
	beTask     = model.TaskID{Job: "bg-scan", Index: 1}
	lsTask     = model.TaskID{Job: "bigtable", Index: 2}
)

// decide runs one enforcement round on m for victim over ranked, as
// analyse does once Identify has ranked the suspects.
func decide(m *Manager, now time.Time, victim model.TaskID, victimJob model.Job, ranked []Suspect) Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decideLocked(now, victim, victimJob, ranked)
}

// decideGroup enforces on m against group, as analyse does once
// FindAntagonistGroup has found one.
func decideGroup(m *Manager, now time.Time, victim model.TaskID, victimJob model.Job, group GroupSuspect) []Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decideGroupLocked(now, victim, victimJob, group)
}

// withJobs gives each suspect its job's class and priority from the
// fixture's job table, as Manager.analyse does from registered jobs.
func withJobs(ranked []Suspect) []Suspect {
	jobs := map[model.JobName]model.Job{
		"search":    victimJob,
		"mapreduce": {Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch},
		"bg-scan":   {Name: "bg-scan", Class: model.ClassBatch, Priority: model.PriorityBestEffort},
		"bigtable":  {Name: "bigtable", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction},
	}
	for i := range ranked {
		j := jobs[ranked[i].Job]
		ranked[i].Class, ranked[i].Priority = j.Class, j.Priority
	}
	return ranked
}

func TestEnforcerCapsBatchAntagonist(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{
		{Task: lsTask, Job: "bigtable", Correlation: 0.5},
		{Task: batchTask, Job: "mapreduce", Correlation: 0.45},
	}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionCap {
		t.Fatalf("action = %v (%s)", d.Action, d.Reason)
	}
	if d.Target != batchTask {
		t.Errorf("target = %v, want the batch suspect (LS suspects are never capped)", d.Target)
	}
	if d.Quota != 0.1 {
		t.Errorf("quota = %v, want 0.1 for plain batch", d.Quota)
	}
	if q, ok := capper.quota(batchTask); !ok || q != 0.1 {
		t.Errorf("capper state = %v,%v", q, ok)
	}
	if !d.Until.Equal(day0.Add(5 * time.Minute)) {
		t.Errorf("until = %v", d.Until)
	}
}

func TestEnforcerBestEffortGetsHarsherQuota(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{{Task: beTask, Job: "bg-scan", Correlation: 0.6}}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionCap || d.Quota != 0.01 {
		t.Errorf("decision = %+v, want cap at 0.01", d)
	}
}

func TestEnforcerBelowThresholdNoAction(t *testing.T) {
	m := NewManager("m", DefaultParams(), newFakeCapper())
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.34}}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionNone {
		t.Errorf("action = %v, want none below 0.35", d.Action)
	}
}

func TestEnforcerOnlyLatencySensitiveSuspects(t *testing.T) {
	// Case 3-like: all suspects latency-sensitive → nothing to throttle.
	m := NewManager("m", DefaultParams(), newFakeCapper())
	ranked := []Suspect{
		{Task: lsTask, Job: "bigtable", Correlation: 0.7},
	}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionNone {
		t.Errorf("action = %v, want none", d.Action)
	}
}

func TestEnforcerUnprotectedVictimReportsOnly(t *testing.T) {
	m := NewManager("m", DefaultParams(), newFakeCapper())
	batchVictim := model.Job{Name: "other-batch", Class: model.ClassBatch}
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.5}}
	d := decide(m, day0, model.TaskID{Job: "other-batch"}, batchVictim, withJobs(ranked))
	if d.Action != ActionReport {
		t.Errorf("action = %v, want report", d.Action)
	}
}

func TestEnforcerAutoCapDisabled(t *testing.T) {
	p := DefaultParams()
	p.ReportOnly = true
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.5}}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionReport {
		t.Errorf("action = %v, want report in conservative mode", d.Action)
	}
	if _, ok := capper.quota(batchTask); ok {
		t.Error("cap applied despite ReportOnly")
	}
}

func TestEnforcerCapExpires(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.5}}
	decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if released := m.Tick(day0.Add(4 * time.Minute)); len(released) != 0 {
		t.Errorf("released early: %v", released)
	}
	released := m.Tick(day0.Add(5 * time.Minute))
	if len(released) != 1 || released[0] != batchTask {
		t.Errorf("released = %v", released)
	}
	if _, ok := capper.quota(batchTask); ok {
		t.Error("task still capped after expiry")
	}
	if len(m.ActiveCaps()) != 0 {
		t.Error("active caps not cleared")
	}
}

func TestEnforcerSkipsAlreadyCapped(t *testing.T) {
	// Re-analysis (§5): if the victim stays anomalous, the next round
	// must pick a different suspect, not re-cap the same one.
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{
		{Task: batchTask, Job: "mapreduce", Correlation: 0.6},
		{Task: beTask, Job: "bg-scan", Correlation: 0.4},
	}
	d1 := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d1.Target != batchTask {
		t.Fatalf("round 1 target = %v", d1.Target)
	}
	d2 := decide(m, day0.Add(time.Minute), victimTask, victimJob, withJobs(ranked))
	if d2.Target != beTask {
		t.Errorf("round 2 target = %v, want the next suspect", d2.Target)
	}
	if len(m.ActiveCaps()) != 2 {
		t.Errorf("active caps = %d", len(m.ActiveCaps()))
	}
}

func TestEnforcerCapFailureReports(t *testing.T) {
	capper := newFakeCapper()
	capper.failOn[batchTask] = true
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.5}}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionReport {
		t.Errorf("action = %v, want report on mechanism failure", d.Action)
	}
}

func TestEnforcerVictimNeverTargetsItself(t *testing.T) {
	m := NewManager("m", DefaultParams(), newFakeCapper())
	ranked := []Suspect{{Task: victimTask, Job: "search", Correlation: 0.9}}
	d := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionNone {
		t.Errorf("victim targeted itself: %+v", d)
	}
}

func TestEnforcerFeedbackThrottlingEscalates(t *testing.T) {
	p := DefaultParams()
	p.FeedbackThrottling = true
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.5}}
	d1 := decide(m, day0, victimTask, victimJob, withJobs(ranked))
	if d1.Quota != 0.1 {
		t.Fatalf("round 1 quota = %v", d1.Quota)
	}
	// Cap expires, victim still suffering, same suspect re-chosen:
	// quota halves.
	m.Tick(day0.Add(5 * time.Minute))
	d2 := decide(m, day0.Add(6*time.Minute), victimTask, victimJob, withJobs(ranked))
	if d2.Quota != 0.05 {
		t.Errorf("round 2 quota = %v, want 0.05", d2.Quota)
	}
	// Escalation floors at the best-effort quota.
	for i := 0; i < 6; i++ {
		m.Tick(day0.Add(time.Duration(11+i*6) * time.Minute))
		decide(m, day0.Add(time.Duration(12+i*6)*time.Minute), victimTask, victimJob, withJobs(ranked))
	}
	m.Tick(day0.Add(60 * time.Minute))
	dN := decide(m, day0.Add(61*time.Minute), victimTask, victimJob, withJobs(ranked))
	if dN.Quota != p.BestEffortQuota {
		t.Errorf("escalated quota = %v, want floor %v", dN.Quota, p.BestEffortQuota)
	}
}

func TestEnforcerReleaseAll(t *testing.T) {
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	ranked := []Suspect{
		{Task: batchTask, Job: "mapreduce", Correlation: 0.6},
		{Task: beTask, Job: "bg-scan", Correlation: 0.5},
	}
	j := &MemCapJournal{}
	m.SetJournal(j)
	var eventTimes []time.Time
	m.SetEvents(sinkFunc(func(now time.Time, typ string, _ any) {
		if typ == "cap_released" {
			eventTimes = append(eventTimes, now)
		}
	}))
	decide(m, day0, victimTask, victimJob, withJobs(ranked))
	decide(m, day0.Add(time.Minute), victimTask, victimJob, withJobs(ranked))
	released := m.ReleaseAll()
	if len(released) != 2 {
		t.Fatalf("released = %v", released)
	}
	if len(m.ActiveCaps()) != 0 {
		t.Error("caps remain after ReleaseAll")
	}
	// Events and journal tell one clock: each cap_released carries the
	// simulation time of its journal entry, not the host's.
	var uncaps []time.Time
	for _, en := range j.Entries() {
		if en.Op == CapOpUncap {
			uncaps = append(uncaps, en.Time)
		}
	}
	if len(uncaps) != 2 || len(eventTimes) != 2 {
		t.Fatalf("uncap journal entries %v, cap_released events %v: want 2 of each", uncaps, eventTimes)
	}
	for i := range uncaps {
		if !eventTimes[i].Equal(uncaps[i]) || !uncaps[i].Equal(day0.Add(time.Minute)) {
			t.Errorf("release %d: event time %v, journal time %v, want both %v",
				i, eventTimes[i], uncaps[i], day0.Add(time.Minute))
		}
	}
}

// sinkFunc adapts a function to EventSink.
type sinkFunc func(now time.Time, typ string, data any)

func (f sinkFunc) Emit(now time.Time, typ string, data any) { f(now, typ, data) }

func TestActionTypeString(t *testing.T) {
	if ActionNone.String() != "none" || ActionReport.String() != "report" || ActionCap.String() != "cap" {
		t.Error("ActionType strings wrong")
	}
	if ActionType(9).String() != "action(9)" {
		t.Error("unknown action string wrong")
	}
}
