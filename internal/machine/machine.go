// Package machine simulates one multi-tenant machine: each task has its
// own cgroup, a CFS-like fair-share allocator divides the CPUs every
// tick (honoring bandwidth caps), the interference model turns
// co-location into CPI/L3 effects, and per-cgroup performance counters
// accumulate the results for the sampler to read.
//
// The machine is the mechanism substrate CPI² runs on: the node agent
// reads its counters and caps its cgroups, exactly as the real system
// reads perf events and writes cfs_quota_us.
package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/cgroup"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/perfcnt"
)

// Workload drives a task's CPU demand and reacts to what it receives.
// Implementations live in package workload; the interface is defined
// here so the machine does not depend on specific workload types.
type Workload interface {
	// Demand returns the CPU the task wants right now (CPU-sec/sec)
	// and the number of runnable threads backing that demand.
	Demand(now time.Time) (cpu float64, threads int)
	// Deliver reports the outcome of one tick: the CPU rate actually
	// granted over dt and the modelled microarchitectural result. The
	// workload uses this to advance progress, adapt (lame-duck mode),
	// or decide to exit.
	Deliver(now time.Time, granted float64, dt time.Duration, res interference.Result)
	// Done reports whether the task has exited (finished its work or
	// terminated itself, like the Case 6 MapReduce worker).
	Done() bool
}

// Task is one task instance placed on the machine. Its job's metadata
// is not the machine's: the node's CPI² manager keeps it, once per job.
type Task struct {
	ID       model.TaskID
	Profile  *interference.Profile
	Workload Workload

	group  cgroup.Group
	slot   int     // index into the machine's counter column
	base   float64 // uncontended CPI here, skew included: resolved at placement
	socket int     // NUMA domain, assigned at placement
	last   TaskTick
}

// Socket returns the task's NUMA domain.
func (t *Task) Socket() int { return t.socket }

// Last returns the task's outcome of the machine's last tick, zero
// before its first. A task that exited keeps the tick it exited on.
func (t *Task) Last() TaskTick { return t.last }

// TaskTick is the per-task outcome of one simulation tick.
type TaskTick struct {
	Usage   float64 // granted CPU-sec/sec
	Demand  float64 // wanted CPU-sec/sec
	CPI     float64
	L3MPKI  float64
	Threads int
	Capped  bool
}

// Machine is one simulated machine.
type Machine struct {
	name  string
	hw    interference.Machine
	ncpus int
	tasks map[model.TaskID]*Task // ID index of order
	order []*Task                // resident tasks, in placement order
	rng   *rand.Rand

	// cnts is the cumulative counter column: tasks index it by slot, so
	// per-task counters live contiguously instead of as one heap object
	// each. freeSlots recycles the slots of departed tasks.
	cnts      []perfcnt.Counters
	freeSlots []int
	now       time.Time

	// leasesExpired counts caps the machine itself released because
	// their lease ran out — the crash-safety backstop firing.
	leasesExpired int64

	// Per-tick scratch buffers, reused across Ticks so steady-state
	// ticking allocates nothing. Sized to the resident task count.
	scratch struct {
		demands []cgroup.Demand
		grants  []float64
		loads   []interference.Load
		results []interference.Result
		alloc   cgroup.AllocScratch
	}
}

// New creates a machine with ncpus CPUs of the given hardware model.
// rng supplies measurement noise; it may be nil for deterministic
// behaviour.
func New(name string, hw interference.Machine, ncpus int, rng *rand.Rand) *Machine {
	if ncpus < 1 {
		ncpus = 1
	}
	return &Machine{
		name:  name,
		hw:    hw,
		ncpus: ncpus,
		tasks: make(map[model.TaskID]*Task),
		rng:   rng,
	}
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// Platform returns the machine's CPU type.
func (m *Machine) Platform() model.Platform { return m.hw.Platform }

// NumCPUs returns the machine's CPU count.
func (m *Machine) NumCPUs() int { return m.ncpus }

// NumTasks returns the number of resident tasks.
func (m *Machine) NumTasks() int { return len(m.tasks) }

// Tasks returns the resident task IDs in deterministic order.
func (m *Machine) Tasks() []model.TaskID {
	out := make([]model.TaskID, len(m.order))
	for i, t := range m.order {
		out[i] = t.ID
	}
	return out
}

// Task returns the resident task with the given ID, or nil.
func (m *Machine) Task(id model.TaskID) *Task {
	return m.tasks[id]
}

// AddTask places a task on the machine, creating its cgroup.
func (m *Machine) AddTask(id model.TaskID, profile *interference.Profile, w Workload) error {
	if _, ok := m.tasks[id]; ok {
		return fmt.Errorf("machine %s: task %v already placed", m.name, id)
	}
	t := &Task{
		ID: id, Profile: profile, Workload: w,
		slot:   m.takeSlot(),
		base:   profile.BaseOn(m.hw.Platform, profile.DrawSkew(m.rng)),
		socket: m.pickSocket(),
	}
	m.tasks[id] = t
	m.order = append(m.order, t)
	return nil
}

// takeSlot returns a zeroed index into the counter column, reusing a
// departed task's slot when one is free.
func (m *Machine) takeSlot() int {
	if n := len(m.freeSlots); n > 0 {
		slot := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		m.cnts[slot] = perfcnt.Counters{}
		return slot
	}
	m.cnts = append(m.cnts, perfcnt.Counters{})
	return len(m.cnts) - 1
}

// RemoveTask evicts a task (exit, preemption, or migration). Its
// cgroup, and any cap on it, goes with it.
func (m *Machine) RemoveTask(id model.TaskID) error {
	t, ok := m.tasks[id]
	if !ok {
		return fmt.Errorf("machine %s: no task %v", m.name, id)
	}
	delete(m.tasks, id)
	m.order = slices.DeleteFunc(m.order, func(o *Task) bool { return o == t })
	m.freeSlots = append(m.freeSlots, t.slot)
	return nil
}

// pickSocket assigns a NUMA domain to a new task: the socket with the
// fewest resident tasks (a kernel-sched-like balance).
func (m *Machine) pickSocket() int {
	if m.hw.Sockets <= 1 {
		return 0
	}
	counts := make([]int, m.hw.Sockets)
	for _, t := range m.order {
		counts[t.socket]++
	}
	best := 0
	for s := 1; s < len(counts); s++ {
		if counts[s] < counts[best] {
			best = s
		}
	}
	return best
}

// Cap applies a CFS bandwidth cap to a task's cgroup (implements
// core.Capper).
func (m *Machine) Cap(id model.TaskID, quota float64) error {
	t, ok := m.tasks[id]
	if !ok {
		return fmt.Errorf("machine %s: cap: no task %v", m.name, id)
	}
	t.group.SetLimit(cgroup.LimitFromRate(quota))
	return nil
}

// Uncap removes a task's bandwidth cap (implements core.Capper).
func (m *Machine) Uncap(id model.TaskID) error {
	t, ok := m.tasks[id]
	if !ok {
		return fmt.Errorf("machine %s: uncap: no task %v", m.name, id)
	}
	t.group.ClearLimit()
	return nil
}

// IsCapped reports whether a task currently has a bandwidth limit.
func (m *Machine) IsCapped(id model.TaskID) bool {
	t, ok := m.tasks[id]
	return ok && t.group.Limit().IsLimited()
}

// CapLease applies a CFS bandwidth cap that self-releases at expires
// unless renewed (implements core.LeaseCapper). Operator caps applied
// via Cap are unaffected: only leased caps expire.
func (m *Machine) CapLease(id model.TaskID, quota float64, expires time.Time) error {
	t, ok := m.tasks[id]
	if !ok {
		return fmt.Errorf("machine %s: cap-lease: no task %v", m.name, id)
	}
	t.group.SetLimitLease(cgroup.LimitFromRate(quota), expires)
	return nil
}

// RenewCapLease extends the lease on a task's cap (implements
// core.LeaseCapper). It reports whether a leased cap was present.
func (m *Machine) RenewCapLease(id model.TaskID, expires time.Time) bool {
	t, ok := m.tasks[id]
	if !ok {
		return false
	}
	return t.group.RenewLease(expires)
}

// CapLeaseExpiry returns a task's cap-lease expiry, and whether the
// task currently holds a leased cap at all.
func (m *Machine) CapLeaseExpiry(id model.TaskID) (time.Time, bool) {
	t, ok := m.tasks[id]
	if !ok {
		return time.Time{}, false
	}
	return t.group.LeaseExpiry()
}

// LeasesExpired returns the cumulative number of caps this machine
// self-released because their lease expired without renewal.
func (m *Machine) LeasesExpired() int64 { return m.leasesExpired }

// Utilization returns the machine CPU utilization of the last tick
// (granted CPU / capacity), in [0, 1].
func (m *Machine) Utilization() float64 {
	var used float64
	for _, t := range m.order {
		used += t.last.Usage
	}
	return used / float64(m.ncpus)
}

// ThreadCount returns the total runnable threads of the last tick —
// the quantity behind Figure 1(b).
func (m *Machine) ThreadCount() int {
	n := 0
	for _, t := range m.order {
		n += t.last.Threads
	}
	return n
}

// ReadCounters fills dst with each task's cumulative cgroup counters —
// the allocation-free snapshot read behind perfcnt.Sampler.Tick.
func (m *Machine) ReadCounters(dst *perfcnt.Snapshot) {
	dst.Reset()
	for _, t := range m.order {
		dst.Append(t.ID, m.cnts[t.slot])
	}
}

// TaskCounters returns one task's cumulative counters, for tests.
func (m *Machine) TaskCounters(id model.TaskID) (perfcnt.Counters, bool) {
	t, ok := m.tasks[id]
	if !ok {
		return perfcnt.Counters{}, false
	}
	return m.cnts[t.slot], true
}

// Tick advances the machine by dt ending at now: collects demands,
// allocates CPU under caps, evaluates interference, charges
// counters, informs workloads, and reaps tasks whose workloads
// finished. It returns how many tasks ran, and the IDs of those that
// exited this tick, sorted. Each task that ran keeps its outcome on
// its record (Task.Last); look up one that may exit before the tick.
//
// Tick only touches this machine's state (its tasks' cgroups,
// counters, RNG stream, and resident workloads), so DISTINCT machines
// may tick concurrently — the cluster's parallel step relies on this.
// The one caveat is workloads that coordinate across machines: they
// must be concurrency-safe themselves and, for reproducibility,
// order-insensitive within a tick (see workload.SearchTree for a
// conforming design and workload.MRMaster's determinism note for a
// non-conforming one). Tick must not be called concurrently on the
// SAME machine.
func (m *Machine) Tick(now time.Time, dt time.Duration) (ran int, exited []model.TaskID) {
	return m.TickAt(now, dt, interference.DayPhase(now))
}

// TickAt is Tick with the day phase of now (interference.DayPhase)
// supplied by the caller, which computes it once for every machine it
// steps to the same instant.
func (m *Machine) TickAt(now time.Time, dt time.Duration, phase float64) (ran int, exited []model.TaskID) {
	m.now = now
	n := len(m.order)
	if n == 0 {
		return 0, nil
	}
	demands, grants, loads, results := m.grow(n)
	for i, t := range m.order {
		// Lease sweep before allocation: the mechanism layer runs even
		// when the agent that applied a cap is dead, so an orphaned cap
		// self-releases here within one TTL of its last renewal.
		if t.group.SweepLease(now) {
			m.leasesExpired++
		}
		cpu, th := t.Workload.Demand(now)
		if cpu < 0 {
			cpu = 0
		}
		demands[i] = cgroup.Demand{Group: &t.group, Want: cpu}
		t.last.Demand, t.last.Threads = cpu, th
	}
	cgroup.AllocateInto(float64(m.ncpus), dt, demands, grants, &m.scratch.alloc)

	for i, t := range m.order {
		loads[i] = interference.Load{Profile: t.Profile, Usage: grants[i], Base: t.base, Socket: t.socket}
	}
	m.hw.EvaluateAll(loads, phase, m.rng, results)

	for i, t := range m.order {
		res := results[i]
		t.last.Usage, t.last.CPI, t.last.L3MPKI = grants[i], res.CPI, res.L3MPKI
		t.last.Capped = t.group.Limit().IsLimited()

		m.cnts[t.slot].Accumulate(grants[i]*dt.Seconds(), res.CPI, res.L3MPKI, m.hw.ClockGHz)

		t.Workload.Deliver(now, grants[i], dt, res)
		if t.Workload.Done() {
			exited = append(exited, t.ID)
		}
	}
	for i := range demands {
		demands[i].Group = nil // drop refs so removed tasks are collectable
	}
	for _, id := range exited {
		_ = m.RemoveTask(id)
	}
	if len(exited) > 1 {
		sort.Slice(exited, func(i, j int) bool { return exited[i].Compare(exited[j]) < 0 })
	}
	return n, exited
}

// grow sizes the scratch buffers for n resident tasks and returns them.
func (m *Machine) grow(n int) ([]cgroup.Demand, []float64, []interference.Load, []interference.Result) {
	s := &m.scratch
	if cap(s.demands) < n {
		s.demands = make([]cgroup.Demand, n)
		s.grants = make([]float64, n)
		s.loads = make([]interference.Load, n)
		s.results = make([]interference.Result, n)
	}
	return s.demands[:n], s.grants[:n], s.loads[:n], s.results[:n]
}
