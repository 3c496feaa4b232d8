package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// leaseCapper is a fakeCapper with the LeaseCapper + IsCapped surface
// of machine.Machine: caps carry expiries, tasks can "exit".
type leaseCapper struct {
	mu     sync.Mutex
	caps   map[model.TaskID]float64
	leases map[model.TaskID]time.Time
	gone   map[model.TaskID]bool // exited tasks: all ops fail / report uncapped
}

func newLeaseCapper() *leaseCapper {
	return &leaseCapper{
		caps:   make(map[model.TaskID]float64),
		leases: make(map[model.TaskID]time.Time),
		gone:   make(map[model.TaskID]bool),
	}
}

func (f *leaseCapper) Cap(task model.TaskID, quota float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gone[task] {
		return errors.New("no such task")
	}
	f.caps[task] = quota
	delete(f.leases, task)
	return nil
}

func (f *leaseCapper) CapLease(task model.TaskID, quota float64, expires time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gone[task] {
		return errors.New("no such task")
	}
	f.caps[task] = quota
	f.leases[task] = expires
	return nil
}

func (f *leaseCapper) RenewCapLease(task model.TaskID, expires time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.leases[task]; !ok || f.gone[task] {
		return false
	}
	if expires.After(f.leases[task]) {
		f.leases[task] = expires
	}
	return true
}

func (f *leaseCapper) Uncap(task model.TaskID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gone[task] {
		return errors.New("no such task")
	}
	delete(f.caps, task)
	delete(f.leases, task)
	return nil
}

func (f *leaseCapper) IsCapped(task model.TaskID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.gone[task] && f.capsHas(task)
}

func (f *leaseCapper) capsHas(task model.TaskID) bool { _, ok := f.caps[task]; return ok }

func (f *leaseCapper) lease(task model.TaskID) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	exp, ok := f.leases[task]
	return exp, ok
}

func (f *leaseCapper) markGone(task model.TaskID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gone[task] = true
	delete(f.caps, task)
	delete(f.leases, task)
}

func TestEnforcerCapsCarryLeases(t *testing.T) {
	capper := newLeaseCapper()
	p := DefaultParams()
	e := NewEnforcer(p, capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.6}}
	d := e.Decide(day0, victimTask, victimJob, withJobs(ranked))
	if d.Action != ActionCap {
		t.Fatalf("decision = %+v", d)
	}
	exp, ok := capper.lease(batchTask)
	if !ok || !exp.Equal(day0.Add(p.CapLeaseTTL)) {
		t.Fatalf("lease = %v,%v, want TTL from decision time", exp, ok)
	}
	// Every Tick renews the lease while the cap is live.
	e.Tick(day0.Add(30 * time.Second))
	if exp, _ := capper.lease(batchTask); !exp.Equal(day0.Add(30*time.Second + p.CapLeaseTTL)) {
		t.Errorf("lease after tick = %v", exp)
	}
	// If the mechanism lost the cap (lease swept while we stalled),
	// Tick re-asserts it.
	capper.mu.Lock()
	delete(capper.caps, batchTask)
	delete(capper.leases, batchTask)
	capper.mu.Unlock()
	e.Tick(day0.Add(time.Minute))
	if !capper.IsCapped(batchTask) {
		t.Error("Tick did not re-assert a swept cap")
	}
}

func TestEnforcerJournalsDecisions(t *testing.T) {
	capper := newLeaseCapper()
	e := NewEnforcer(DefaultParams(), capper)
	j := &MemCapJournal{}
	e.SetJournal(j)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.6}}
	if d := e.Decide(day0, victimTask, victimJob, withJobs(ranked)); d.Action != ActionCap {
		t.Fatalf("decision = %+v", d)
	}
	e.Tick(day0.Add(10 * time.Minute)) // past CapDuration: expires
	entries := j.Entries()
	if len(entries) != 2 {
		t.Fatalf("journal = %+v", entries)
	}
	if entries[0].Op != CapOpCap || entries[0].Task != batchTask.String() ||
		entries[0].Victim != victimTask.String() || entries[0].Quota != 0.1 {
		t.Errorf("cap entry = %+v", entries[0])
	}
	if err := entries[0].Validate(); err != nil {
		t.Errorf("cap entry invalid: %v", err)
	}
	if entries[1].Op != CapOpUncap || entries[1].Reason != "expired" {
		t.Errorf("uncap entry = %+v", entries[1])
	}
	if live, _ := ReplayCapEntries(entries); len(live) != 0 {
		t.Errorf("replay after expiry = %v caps", len(live))
	}
}

func TestEnforcerTaskExited(t *testing.T) {
	capper := newLeaseCapper()
	reg := obs.NewRegistry()
	e := NewEnforcer(DefaultParams(), capper)
	e.SetMetrics(NewMetrics(reg))
	j := &MemCapJournal{}
	e.SetJournal(j)
	log := obs.NewEventLog(16, nil)
	e.SetEvents(log)

	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.6}}
	if d := e.Decide(day0, victimTask, victimJob, withJobs(ranked)); d.Action != ActionCap {
		t.Fatalf("decision = %+v", d)
	}
	// The task exits; machine removes its cgroup (cap cleared with it).
	capper.markGone(batchTask)
	e.TaskExited(batchTask)
	if len(e.ActiveCaps()) != 0 {
		t.Fatal("cap lingers in ActiveCaps after task exit")
	}
	// Idempotent for tasks without caps.
	e.TaskExited(lsTask)

	entries := j.Entries()
	if len(entries) != 2 || entries[1].Op != CapOpUncap || entries[1].Reason != "task_exited" {
		t.Errorf("journal = %+v", entries)
	}
	released := log.Recent(1, "cap_released")
	if len(released) != 1 {
		t.Errorf("cap_released events = %v, want 1", released)
	}
	// Subsequent ticks must not try to uncap the departed task.
	e.Tick(day0.Add(10 * time.Minute))
	if got := len(e.ActiveCaps()); got != 0 {
		t.Errorf("active after tick = %d", got)
	}
}

func TestReconcileAdoptsAndOrphans(t *testing.T) {
	capper := newLeaseCapper()
	reg := obs.NewRegistry()
	p := DefaultParams()

	// Simulate the pre-crash agent: three caps journalled; one expired
	// meanwhile, one's task exited, one is still live and unexpired.
	liveTask := model.TaskID{Job: "mapreduce", Index: 7}
	expiredTask := model.TaskID{Job: "bg-scan", Index: 1}
	goneTask := model.TaskID{Job: "mapreduce", Index: 9}
	now := day0.Add(2 * time.Minute)
	entries := []CapJournalEntry{
		{Op: CapOpCap, Time: day0, Task: liveTask.String(), Victim: victimTask.String(),
			Quota: 0.1, Expires: day0.Add(5 * time.Minute), Round: 2},
		{Op: CapOpCap, Time: day0.Add(-10 * time.Minute), Task: expiredTask.String(),
			Victim: victimTask.String(), Quota: 0.01, Expires: day0.Add(-5 * time.Minute)},
		{Op: CapOpCap, Time: day0, Task: goneTask.String(), Victim: victimTask.String(),
			Quota: 0.1, Expires: day0.Add(5 * time.Minute)},
	}
	// Live cgroup state the restarted agent sees: the live cap survived
	// (leases outlive a fast restart), the expired one too (nobody
	// swept it yet), the exited task has no cgroup.
	_ = capper.CapLease(liveTask, 0.1, day0.Add(time.Minute))
	_ = capper.CapLease(expiredTask, 0.01, day0.Add(time.Minute))
	capper.markGone(goneTask)

	e := NewEnforcer(p, capper)
	e.SetMetrics(NewMetrics(reg))
	j := &MemCapJournal{}
	e.SetJournal(j)
	adopted, orphaned := e.Reconcile(now, entries)

	if len(adopted) != 1 || adopted[0] != liveTask {
		t.Fatalf("adopted = %v, want [%v]", adopted, liveTask)
	}
	if len(orphaned) != 2 {
		t.Fatalf("orphaned = %v", orphaned)
	}
	// Orphans are processed in sorted task order.
	if orphaned[0] != expiredTask || orphaned[1] != goneTask {
		t.Errorf("orphan order = %v", orphaned)
	}
	// The adopted cap resumes its original expiry and round.
	caps := e.ActiveCaps()
	if q, ok := caps[liveTask]; !ok || q != 0.1 {
		t.Fatalf("adopted cap = %v,%v", q, ok)
	}
	if exp, ok := capper.lease(liveTask); !ok || !exp.Equal(now.Add(p.CapLeaseTTL)) {
		t.Errorf("adopted lease = %v,%v, want refreshed TTL", exp, ok)
	}
	// The expired orphan was uncapped at the mechanism.
	if capper.IsCapped(expiredTask) {
		t.Error("expired orphan still capped")
	}
	// Reconciliation journals the orphan releases so a second replay
	// converges: only the adopted cap remains.
	live, _ := ReplayCapEntries(append(entries, j.Entries()...))
	if len(live) != 1 {
		t.Errorf("journal after reconcile folds to %d caps, want 1", len(live))
	}
	// Original expiry preserved: one tick past it releases the cap.
	e.Tick(day0.Add(5 * time.Minute))
	if len(e.ActiveCaps()) != 0 {
		t.Error("adopted cap did not expire at its original deadline")
	}
	// Feedback-throttling round survived the restart: the next cap of
	// the same victim→task pair escalates from round 2.
	_ = capper.CapLease(liveTask, 0.1, now.Add(time.Minute)) // cap live again
	e2 := NewEnforcer(Params{FeedbackThrottling: true}, capper)
	e2.Reconcile(now, entries[:1])
	e2.Tick(day0.Add(5 * time.Minute)) // release so Decide re-caps
	d := e2.Decide(day0.Add(6*time.Minute), victimTask, victimJob,
		withJobs([]Suspect{{Task: liveTask, Job: "mapreduce", Correlation: 0.6}}))
	if d.Action != ActionCap || d.Quota >= 0.1 {
		t.Errorf("post-restart feedback cap = %+v, want escalated (halved) quota", d)
	}
}

func TestReconcileEmptyAndCorruptJournal(t *testing.T) {
	capper := newLeaseCapper()
	e := NewEnforcer(DefaultParams(), capper)
	adopted, orphaned := e.Reconcile(day0, nil)
	if len(adopted) != 0 || len(orphaned) != 0 {
		t.Errorf("empty journal: adopted=%v orphaned=%v", adopted, orphaned)
	}
	// A journal of pure garbage must not create caps.
	garbage := []CapJournalEntry{
		{Op: "cap", Task: "???", Quota: 0.1},
		{Op: "launch-missiles", Task: "a/1"},
	}
	adopted, orphaned = e.Reconcile(day0, garbage)
	if len(adopted) != 0 || len(orphaned) != 0 || len(e.ActiveCaps()) != 0 {
		t.Errorf("garbage journal acted: adopted=%v orphaned=%v", adopted, orphaned)
	}
}

// FuzzCapJournalReplay asserts replay + reconcile never panic and
// never adopt a cap with a non-positive or non-finite quota, no matter
// how mangled the journal.
func FuzzCapJournalReplay(f *testing.F) {
	f.Add("cap", "a/1", 0.1, int64(300), int64(0))
	f.Add("uncap", "a/1", 0.0, int64(0), int64(100))
	f.Add("cap", "", -1.0, int64(-5), int64(50))
	f.Fuzz(func(t *testing.T, op, task string, quota float64, expOffset, nowOffset int64) {
		entries := []CapJournalEntry{
			{Op: op, Time: day0, Task: task, Victim: "v/0", Quota: quota,
				Expires: day0.Add(time.Duration(expOffset) * time.Second)},
			{Op: CapOpCap, Time: day0, Task: "b/2", Victim: "v/0", Quota: 0.1,
				Expires: day0.Add(5 * time.Minute)},
		}
		live, _ := ReplayCapEntries(entries)
		for _, e := range live {
			if e.Quota <= 0 {
				t.Fatalf("replay kept non-positive quota: %+v", e)
			}
		}
		capper := newLeaseCapper()
		e := NewEnforcer(DefaultParams(), capper)
		now := day0.Add(time.Duration(nowOffset) * time.Second)
		adopted, _ := e.Reconcile(now, entries)
		for _, task := range adopted {
			q := e.ActiveCaps()[task]
			if q <= 0 {
				t.Fatalf("adopted cap with quota %g", q)
			}
		}
	})
}
