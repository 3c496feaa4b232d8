package machine

import (
	"math"
	"testing"
	"time"

	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/perfcnt"
)

var t0 = time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fixedWorkload demands a constant CPU rate forever.
type fixedWorkload struct {
	cpu     float64
	threads int
	granted []float64
	done    bool
}

func (f *fixedWorkload) Demand(time.Time) (float64, int) { return f.cpu, f.threads }
func (f *fixedWorkload) Deliver(_ time.Time, granted float64, _ time.Duration, _ interference.Result) {
	f.granted = append(f.granted, granted)
}
func (f *fixedWorkload) Done() bool { return f.done }

func testProfile(cpi float64) *interference.Profile {
	return &interference.Profile{
		DefaultCPI:     cpi,
		CacheFootprint: 4,
		MemBandwidth:   2,
		Sensitivity:    0.5,
		BaseL3MPKI:     3,
	}
}

func newTestMachine(ncpus int) *Machine {
	return New("m1", interference.DefaultMachine(model.PlatformA), ncpus, nil)
}

func addTask(t *testing.T, m *Machine, job string, idx int, cpu float64) (*fixedWorkload, model.TaskID) {
	t.Helper()
	w := &fixedWorkload{cpu: cpu, threads: 4}
	id := model.TaskID{Job: model.JobName(job), Index: idx}
	err := m.AddTask(id, model.Job{Name: model.JobName(job), Class: model.ClassBatch}, testProfile(1.2), w)
	if err != nil {
		t.Fatal(err)
	}
	return w, id
}

func TestAddRemoveTask(t *testing.T) {
	m := newTestMachine(8)
	_, id := addTask(t, m, "j", 0, 1)
	if m.NumTasks() != 1 {
		t.Errorf("NumTasks = %d", m.NumTasks())
	}
	if m.Task(id) == nil {
		t.Error("Task lookup failed")
	}
	if err := m.AddTask(id, model.Job{}, nil, &fixedWorkload{}); err == nil {
		t.Error("duplicate placement should fail")
	}
	if err := m.RemoveTask(id); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveTask(id); err == nil {
		t.Error("double remove should fail")
	}
	if m.NumTasks() != 0 {
		t.Error("task not removed")
	}
}

func TestTickGrantsAndCounters(t *testing.T) {
	m := newTestMachine(8)
	w, id := addTask(t, m, "j", 0, 2.0)
	ticks, exited := m.Tick(t0, time.Second)
	if len(exited) != 0 {
		t.Errorf("exited = %v", exited)
	}
	if len(ticks) != 1 {
		t.Fatalf("ticks = %d", len(ticks))
	}
	tt := ticks[0]
	if tt.ID != id || !almostEqual(tt.Usage, 2.0, 1e-9) {
		t.Errorf("tick = %+v", tt)
	}
	if tt.CPI <= 0 || tt.Threads != 4 {
		t.Errorf("tick = %+v", tt)
	}
	if len(w.granted) != 1 || !almostEqual(w.granted[0], 2.0, 1e-9) {
		t.Errorf("delivered = %v", w.granted)
	}
	cs, _ := m.TaskCounters(id)
	if !almostEqual(cs.CPUSeconds, 2.0, 1e-9) {
		t.Errorf("counter cpu = %v", cs.CPUSeconds)
	}
	if cs.CPI() <= 0 {
		t.Error("counter CPI missing")
	}
}

func TestCapReducesUsageAndCPIOfVictimRecovers(t *testing.T) {
	m := newTestMachine(8)
	victim := &fixedWorkload{cpu: 1, threads: 2}
	vid := model.TaskID{Job: "victim", Index: 0}
	vprof := &interference.Profile{DefaultCPI: 1.0, CacheFootprint: 1, MemBandwidth: 0.5, Sensitivity: 1.5, BaseL3MPKI: 2}
	if err := m.AddTask(vid, model.Job{Name: "victim", Class: model.ClassLatencySensitive}, vprof, victim); err != nil {
		t.Fatal(err)
	}
	antag := &fixedWorkload{cpu: 5, threads: 8}
	aid := model.TaskID{Job: "antag", Index: 0}
	aprof := &interference.Profile{DefaultCPI: 1.5, CacheFootprint: 10, MemBandwidth: 8, Sensitivity: 0.2, BaseL3MPKI: 12}
	if err := m.AddTask(aid, model.Job{Name: "antag", Class: model.ClassBatch}, aprof, antag); err != nil {
		t.Fatal(err)
	}

	ticks, _ := m.Tick(t0, time.Second)
	victimCPIBefore := ticks[0].CPI
	if victimCPIBefore <= 1.0 {
		t.Fatalf("victim CPI = %v, want inflated", victimCPIBefore)
	}

	if err := m.Cap(aid, 0.1); err != nil {
		t.Fatal(err)
	}
	if !m.IsCapped(aid) {
		t.Error("IsCapped false after Cap")
	}
	ticks, _ = m.Tick(t0.Add(time.Second), time.Second)
	victimCPIDuring := ticks[0].CPI
	antagUsage := ticks[1].Usage
	if !almostEqual(antagUsage, 0.1, 1e-9) {
		t.Errorf("capped antagonist usage = %v", antagUsage)
	}
	if !ticks[1].Capped {
		t.Error("tick not marked capped")
	}
	if victimCPIDuring >= victimCPIBefore {
		t.Errorf("victim CPI %v did not improve from %v under cap", victimCPIDuring, victimCPIBefore)
	}

	if err := m.Uncap(aid); err != nil {
		t.Fatal(err)
	}
	ticks, _ = m.Tick(t0.Add(2*time.Second), time.Second)
	if got := ticks[0].CPI; !almostEqual(got, victimCPIBefore, 1e-9) {
		t.Errorf("victim CPI after uncap = %v, want %v again", got, victimCPIBefore)
	}
}

func TestCapUnknownTask(t *testing.T) {
	m := newTestMachine(4)
	id := model.TaskID{Job: "ghost", Index: 0}
	if err := m.Cap(id, 0.1); err == nil {
		t.Error("capping unknown task should fail")
	}
	if err := m.Uncap(id); err == nil {
		t.Error("uncapping unknown task should fail")
	}
	if m.IsCapped(id) {
		t.Error("unknown task reported capped")
	}
}

func TestContention(t *testing.T) {
	// Two equal-share tasks wanting 6 CPUs each on an 8-CPU machine
	// split it 4/4.
	m := newTestMachine(8)
	addTask(t, m, "a", 0, 6)
	addTask(t, m, "b", 0, 6)
	ticks, _ := m.Tick(t0, time.Second)
	if !almostEqual(ticks[0].Usage, 4, 1e-9) || !almostEqual(ticks[1].Usage, 4, 1e-9) {
		t.Errorf("grants = %v, %v", ticks[0].Usage, ticks[1].Usage)
	}
	if !almostEqual(m.Utilization(), 1.0, 1e-9) {
		t.Errorf("utilization = %v", m.Utilization())
	}
	if m.ThreadCount() != 8 {
		t.Errorf("threads = %d", m.ThreadCount())
	}
}

func TestWorkloadExitReaped(t *testing.T) {
	m := newTestMachine(4)
	w, id := addTask(t, m, "j", 0, 1)
	m.Tick(t0, time.Second)
	w.done = true
	_, exited := m.Tick(t0.Add(time.Second), time.Second)
	if len(exited) != 1 || exited[0] != id {
		t.Errorf("exited = %v", exited)
	}
	if m.NumTasks() != 0 {
		t.Error("done task not reaped")
	}
	var snap perfcnt.Snapshot
	m.ReadCounters(&snap)
	if len(snap.Cgroups) != 0 {
		t.Errorf("counters not cleaned up: %v", snap.Cgroups)
	}
}

func TestEmptyMachineTick(t *testing.T) {
	m := newTestMachine(4)
	ticks, exited := m.Tick(t0, time.Second)
	if ticks != nil || exited != nil {
		t.Error("empty tick should be nil")
	}
	if m.Utilization() != 0 {
		t.Error("empty utilization nonzero")
	}
}

func TestDeterministicOrder(t *testing.T) {
	m := newTestMachine(16)
	addTask(t, m, "z", 0, 1)
	addTask(t, m, "a", 0, 1)
	addTask(t, m, "m", 0, 1)
	ticks, _ := m.Tick(t0, time.Second)
	// Order is placement order, not alphabetical.
	if ticks[0].ID.Job != "z" || ticks[1].ID.Job != "a" || ticks[2].ID.Job != "m" {
		t.Errorf("order = %v %v %v", ticks[0].ID, ticks[1].ID, ticks[2].ID)
	}
	got := m.Tasks()
	if len(got) != 3 || got[0].Job != "z" {
		t.Errorf("Tasks() = %v", got)
	}
}

func TestSocketAssignmentBalances(t *testing.T) {
	hw := interference.DefaultMachine(model.PlatformA)
	hw.Sockets = 2
	m := New("numa", hw, 16, nil)
	counts := map[int]int{}
	for i := 0; i < 8; i++ {
		id := model.TaskID{Job: "j", Index: i}
		if err := m.AddTask(id, model.Job{Name: "j"}, testProfile(1.2), &fixedWorkload{cpu: 1, threads: 2}); err != nil {
			t.Fatal(err)
		}
		counts[m.Task(id).Socket()]++
	}
	if counts[0] != 4 || counts[1] != 4 {
		t.Errorf("socket balance = %v, want 4/4", counts)
	}
}

func TestCrossSocketTasksDoNotInterfere(t *testing.T) {
	hw := interference.DefaultMachine(model.PlatformA)
	hw.Sockets = 2
	m := New("numa", hw, 16, nil)
	victim := model.TaskID{Job: "victim", Index: 0}
	vprof := &interference.Profile{DefaultCPI: 1.0, CacheFootprint: 1, MemBandwidth: 0.5, Sensitivity: 1.5, BaseL3MPKI: 2}
	if err := m.AddTask(victim, model.Job{Name: "victim"}, vprof, &fixedWorkload{cpu: 1, threads: 2}); err != nil {
		t.Fatal(err)
	}
	// Second placement balances onto socket 1.
	antag := model.TaskID{Job: "antag", Index: 0}
	aprof := &interference.Profile{DefaultCPI: 1.5, CacheFootprint: 10, MemBandwidth: 8, Sensitivity: 0.2, BaseL3MPKI: 12}
	if err := m.AddTask(antag, model.Job{Name: "antag"}, aprof, &fixedWorkload{cpu: 6, threads: 8}); err != nil {
		t.Fatal(err)
	}
	if m.Task(victim).Socket() == m.Task(antag).Socket() {
		t.Fatal("tasks landed on the same socket")
	}
	ticks, _ := m.Tick(t0, time.Second)
	if got := ticks[0].CPI; !almostEqual(got, 1.0, 1e-9) {
		t.Errorf("cross-socket victim CPI = %v, want uncontended 1.0", got)
	}
}

func TestNegativeDemandClamped(t *testing.T) {
	m := newTestMachine(4)
	w := &fixedWorkload{cpu: -5, threads: 1}
	id := model.TaskID{Job: "j", Index: 0}
	if err := m.AddTask(id, model.Job{}, testProfile(1), w); err != nil {
		t.Fatal(err)
	}
	ticks, _ := m.Tick(t0, time.Second)
	if ticks[0].Usage != 0 || ticks[0].Demand != 0 {
		t.Errorf("tick = %+v", ticks[0])
	}
}

func TestCapLeaseSweepInTick(t *testing.T) {
	m := newTestMachine(8)
	w, victim := addTask(t, m, "victim", 0, 2.0)
	_ = w
	_, ant := addTask(t, m, "antag", 0, 6.0)

	// Lease a cap on the antagonist, expiring in 3 ticks.
	if err := m.CapLease(ant, 0.5, t0.Add(3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if !m.IsCapped(ant) {
		t.Fatal("CapLease did not cap")
	}
	if exp, ok := m.CapLeaseExpiry(ant); !ok || !exp.Equal(t0.Add(3*time.Second)) {
		t.Fatalf("CapLeaseExpiry = %v, %v", exp, ok)
	}

	// While renewed, the cap persists past its original expiry.
	for i := 1; i <= 5; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		if !m.RenewCapLease(ant, now.Add(3*time.Second)) {
			t.Fatalf("tick %d: renew failed", i)
		}
		m.Tick(now, time.Second)
		if !m.IsCapped(ant) {
			t.Fatalf("tick %d: renewed cap swept", i)
		}
	}

	// Stop renewing (the owner "crashed"): the cap self-releases at
	// the lease deadline, and only then.
	for i := 6; i <= 7; i++ {
		m.Tick(t0.Add(time.Duration(i)*time.Second), time.Second)
		if !m.IsCapped(ant) {
			t.Fatalf("tick %d: cap released before lease expiry", i)
		}
	}
	m.Tick(t0.Add(8*time.Second), time.Second)
	if m.IsCapped(ant) {
		t.Error("orphaned leased cap not swept at expiry")
	}
	if m.LeasesExpired() != 1 {
		t.Errorf("LeasesExpired = %d, want 1", m.LeasesExpired())
	}
	if m.IsCapped(victim) {
		t.Error("victim was never capped")
	}

	// Operator caps (plain Cap) never expire.
	if err := m.Cap(ant, 0.5); err != nil {
		t.Fatal(err)
	}
	if m.RenewCapLease(ant, t0.Add(time.Hour)) {
		t.Error("RenewCapLease on operator cap should report false")
	}
	m.Tick(t0.Add(24*time.Hour), time.Second)
	if !m.IsCapped(ant) {
		t.Error("operator cap expired")
	}
}

func TestRemoveCappedTaskClearsCap(t *testing.T) {
	m := newTestMachine(8)
	_, id := addTask(t, m, "j", 0, 1)
	if err := m.CapLease(id, 0.5, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Removing a still-capped task is a normal lifecycle race and must
	// succeed (the cap goes with the task's cgroup).
	if err := m.RemoveTask(id); err != nil {
		t.Fatalf("RemoveTask of capped task = %v", err)
	}
	if m.NumTasks() != 0 {
		t.Error("task not removed")
	}
	if err := m.CapLease(id, 0.5, t0.Add(time.Hour)); err == nil {
		t.Error("CapLease on missing task should fail")
	}
	if m.RenewCapLease(id, t0.Add(time.Hour)) {
		t.Error("RenewCapLease on missing task should report false")
	}
	if _, ok := m.CapLeaseExpiry(id); ok {
		t.Error("CapLeaseExpiry on missing task should report false")
	}
}

// steadyWorkload demands a constant CPU rate and records nothing, so a
// tick's allocations are the machine's own.
type steadyWorkload struct{ cpu float64 }

func (s steadyWorkload) Demand(time.Time) (float64, int)                              { return s.cpu, 4 }
func (steadyWorkload) Deliver(time.Time, float64, time.Duration, interference.Result) {}
func (steadyWorkload) Done() bool                                                     { return false }

// TestTickAllocBudget: once warm, a tick allocates nothing — neither
// while a leased cap is renewed nor on the tick whose lease sweep
// releases it.
func TestTickAllocBudget(t *testing.T) {
	m := newTestMachine(8)
	ids := make([]model.TaskID, 3)
	for i, cpu := range []float64{2, 6, 3} {
		ids[i] = model.TaskID{Job: model.JobName("j"), Index: i}
		if err := m.AddTask(ids[i], model.Job{Name: "j", Class: model.ClassBatch}, testProfile(1.2), steadyWorkload{cpu}); err != nil {
			t.Fatal(err)
		}
	}
	ant := ids[1]
	now := t0
	if err := m.CapLease(ant, 0.5, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	m.Tick(now, time.Second) // warm the scratch buffers

	renewing := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		m.RenewCapLease(ant, now.Add(3*time.Second))
		m.Tick(now, time.Second)
	})
	if renewing != 0 || !m.IsCapped(ant) {
		t.Errorf("renewing tick: %v allocs, capped %v; want 0, true", renewing, m.IsCapped(ant))
	}

	before := m.LeasesExpired()
	expiring := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		if err := m.CapLease(ant, 0.5, now); err != nil {
			t.Fatal(err)
		}
		m.Tick(now, time.Second) // the lease is due: swept this tick
	})
	if expiring != 0 {
		t.Errorf("expiring tick: %v allocs, want 0", expiring)
	}
	if got := m.LeasesExpired() - before; got != 101 || m.IsCapped(ant) {
		t.Errorf("swept %d leases (capped %v), want 101 (false): one per run plus the warm-up", got, m.IsCapped(ant))
	}
}
