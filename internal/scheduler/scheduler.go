// Package scheduler implements the central cluster scheduler CPI²
// assumes (§2): every cluster runs a scheduler and admission
// controller that keeps latency-sensitive reservations from being
// oversubscribed while speculatively over-committing resources for
// batch work. It supports priority bands, preemption of batch work
// when machines run too hot, and the two §5 operator actions against
// persistent antagonists: kill-and-restart migration (Migrate) and
// cross-job anti-affinity ("ask the cluster scheduler to avoid
// co-locating their job and these antagonists in the future",
// AvoidColocation). Operators call both; nothing here takes them
// automatically, which §9 leaves to future work.
package scheduler

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// TaskSpec is a placement request.
type TaskSpec struct {
	ID  model.TaskID
	Job model.Job
}

// cpuRequest returns the task's CPU reservation.
func (t TaskSpec) cpuRequest() float64 {
	if t.Job.CPUPerTask > 0 {
		return t.Job.CPUPerTask
	}
	return 1
}

// placement records one scheduled task.
type placement struct {
	spec TaskSpec
	seq  int64 // placement order, for newest-first eviction
}

// machineState is the scheduler's book-keeping for one machine.
//
// The committed/prod-reserved sums are recomputed after every mutation,
// always by re-summing the FULL sorted multiset (never by adding or
// subtracting one request): float addition is not associative, so an
// incremental sum would drift an ULP away from the from-scratch sum and
// flip least-committed ties — breaking the cluster's
// bit-reproducibility guarantee.
type machineState struct {
	name     string
	platform model.Platform
	capacity float64
	tasks    map[model.TaskID]*placement

	jobs map[model.JobName]int // resident task count per job
	// committed and prodReserved are the sums of all resident requests
	// and of the production ones; reqs/prodReqs are the re-sum scratch.
	committed    float64
	prodReserved float64
	reqs         []float64
	prodReqs     []float64

	// The machine's node in the placement index: the score it is keyed
	// on (committed / capacity when last indexed), its heap priority
	// and its children.
	key         float64
	prio        uint64
	left, right *machineState
}

// resum recomputes committed and prodReserved from every resident
// request, summed in sorted-value order: summing in Go's randomized
// map-iteration order would make placement scores differ across runs
// by an ULP.
func (m *machineState) resum() {
	m.reqs = m.reqs[:0]
	m.prodReqs = m.prodReqs[:0]
	for _, p := range m.tasks {
		r := p.spec.cpuRequest()
		m.reqs = append(m.reqs, r)
		if p.spec.Job.Priority.IsProduction() {
			m.prodReqs = append(m.prodReqs, r)
		}
	}
	m.committed = sumSorted(m.reqs)
	m.prodReserved = sumSorted(m.prodReqs)
}

// sumSorted adds values in ascending order, giving a deterministic
// (and slightly more accurate) sum regardless of input order.
func sumSorted(xs []float64) float64 {
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

func (m *machineState) hasJob(job model.JobName) bool {
	return m.jobs[job] > 0
}

// Scheduler is the central scheduler. It is not safe for concurrent
// use; the cluster harness drives it from a single goroutine, as the
// real system's scheduler is a single logical component.
type Scheduler struct {
	// overcommit is the batch over-commit factor: total committed CPU
	// on a machine may reach capacity × overcommit.
	overcommit float64

	machines map[string]*machineState
	// index orders the machines by score for placement; every
	// mutation of a machine's books goes through book or release,
	// which re-key it.
	index index
	where map[model.TaskID]string
	avoid map[model.JobName]map[model.JobName]bool
	seq   int64

	// placements and probes count place calls and the machines they
	// examined; see Probes.
	placements, probes int64
}

// New returns a scheduler with the given batch overcommit factor
// (values ≤ 1 mean "no overcommit").
func New(overcommit float64) *Scheduler {
	if overcommit < 1 {
		overcommit = 1
	}
	return &Scheduler{
		overcommit: overcommit,
		machines:   make(map[string]*machineState),
		where:      make(map[model.TaskID]string),
		avoid:      make(map[model.JobName]map[model.JobName]bool),
	}
}

// AddMachine registers a machine with the given CPU capacity. It may
// be called at any time, also after placement has begun.
func (s *Scheduler) AddMachine(name string, platform model.Platform, cpus float64) error {
	if _, ok := s.machines[name]; ok {
		return fmt.Errorf("scheduler: machine %q already registered", name)
	}
	if cpus <= 0 {
		return fmt.Errorf("scheduler: machine %q has no capacity", name)
	}
	m := &machineState{
		name:     name,
		platform: platform,
		capacity: cpus,
		tasks:    make(map[model.TaskID]*placement),
		jobs:     make(map[model.JobName]int),
		prio:     treapPriority(uint64(len(s.machines))),
	}
	s.machines[name] = m
	s.index.insert(m)
	return nil
}

// NumMachines returns the number of registered machines.
func (s *Scheduler) NumMachines() int { return len(s.machines) }

// AvoidColocation registers a symmetric anti-affinity: tasks of job
// will not be placed on machines running antagonist, and vice versa.
func (s *Scheduler) AvoidColocation(job, antagonist model.JobName) {
	add := func(a, b model.JobName) {
		if s.avoid[a] == nil {
			s.avoid[a] = make(map[model.JobName]bool)
		}
		s.avoid[a][b] = true
	}
	add(job, antagonist)
	add(antagonist, job)
}

// Placement is the result of a successful Place or Migrate call.
type Placement struct {
	Machine string
	// Evicted lists batch tasks preempted to make room; the caller is
	// responsible for restarting them elsewhere (they remain removed
	// from the scheduler's books).
	Evicted []TaskSpec
}

// Place schedules one task. Production tasks are admitted against
// un-overcommitted reservations and may preempt batch work; batch
// tasks are admitted speculatively up to the overcommit factor.
func (s *Scheduler) Place(task TaskSpec) (Placement, error) {
	return s.place(task, "")
}

// Migrate reschedules a task onto a different machine than it is on
// now (the "kill it and restart it somewhere else" path of §5). The
// task keeps its identity; its current placement is released first.
func (s *Scheduler) Migrate(task TaskSpec) (Placement, error) {
	cur, ok := s.where[task.ID]
	if !ok {
		return Placement{}, fmt.Errorf("scheduler: migrate: %v is not placed", task.ID)
	}
	m := s.machines[cur]
	s.release(m, task.ID)
	p, err := s.place(task, cur)
	if err != nil {
		// Roll back to the original machine.
		s.book(m, task)
		return Placement{}, err
	}
	return p, nil
}

func (s *Scheduler) place(task TaskSpec, exclude string) (Placement, error) {
	if _, ok := s.where[task.ID]; ok {
		return Placement{}, fmt.Errorf("scheduler: %v already placed", task.ID)
	}
	req := task.cpuRequest()
	isProd := task.Job.Priority.IsProduction()
	avoid := s.avoid[task.Job.Name]

	// Least-committed-first keeps load spread (and tasks-per-machine
	// distributed like Figure 1); the index yields machines in that
	// order, ties on name, so the first that fits is the pick.
	best, probes := s.index.first(func(m *machineState) bool {
		if m.name == exclude || len(avoid) > 0 && violatesAffinity(m, avoid) {
			return false
		}
		if isProd {
			return m.prodReserved+req <= m.capacity
		}
		return m.committed+req <= m.capacity*s.overcommit
	})
	s.placements++
	s.probes += int64(probes)
	if best == nil {
		return Placement{}, fmt.Errorf("scheduler: no feasible machine for %v (req %.2f CPU, %s)",
			task.ID, req, task.Job.Priority)
	}
	s.book(best, task)

	// A production arrival may push the machine past its overcommit
	// ceiling; preempt batch work (lowest priority, newest first) to
	// get back under — the §2 "preempt a batch task and move it to
	// another machine" path.
	var evicted []TaskSpec
	if isProd {
		evicted = s.preemptIfOvercommitted(best)
	}
	return Placement{Machine: best.name, Evicted: evicted}, nil
}

// book places task on m and re-keys m in the index.
func (s *Scheduler) book(m *machineState, task TaskSpec) {
	s.index.remove(m)
	s.seq++
	m.tasks[task.ID] = &placement{spec: task, seq: s.seq}
	m.jobs[task.Job.Name]++
	m.resum()
	s.where[task.ID] = m.name
	s.index.insert(m)
}

// release takes placed task id off m and re-keys m in the index.
func (s *Scheduler) release(m *machineState, id model.TaskID) {
	s.index.remove(m)
	job := m.tasks[id].spec.Job.Name
	delete(m.tasks, id)
	if m.jobs[job]--; m.jobs[job] <= 0 {
		delete(m.jobs, job)
	}
	m.resum()
	delete(s.where, id)
	s.index.insert(m)
}

func violatesAffinity(m *machineState, avoid map[model.JobName]bool) bool {
	for other := range avoid {
		if m.hasJob(other) {
			return true
		}
	}
	return false
}

func (s *Scheduler) preemptIfOvercommitted(m *machineState) []TaskSpec {
	limit := m.capacity * s.overcommit
	if m.committed <= limit {
		return nil
	}
	// Candidates: non-production tasks, lowest priority first, then
	// newest first (cheapest to restart).
	var cands []*placement
	for _, p := range m.tasks {
		if !p.spec.Job.Priority.IsProduction() {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].spec.Job.Priority != cands[j].spec.Job.Priority {
			return cands[i].spec.Job.Priority < cands[j].spec.Job.Priority
		}
		return cands[i].seq > cands[j].seq
	})
	var evicted []TaskSpec
	for _, p := range cands {
		if m.committed <= limit {
			break
		}
		s.release(m, p.spec.ID)
		evicted = append(evicted, p.spec)
	}
	return evicted
}

// Remove releases a task's placement (task exit or kill).
func (s *Scheduler) Remove(id model.TaskID) error {
	name, ok := s.where[id]
	if !ok {
		return fmt.Errorf("scheduler: %v is not placed", id)
	}
	s.release(s.machines[name], id)
	return nil
}

// Probes returns how many placements (Place and Migrate calls that got
// as far as choosing a machine) have run, and how many machines they
// examined in total. A full scan examines every machine per placement;
// the index examines machines only until one fits.
func (s *Scheduler) Probes() (placements, probes int64) {
	return s.placements, s.probes
}

// MachineOf returns the machine a task is placed on.
func (s *Scheduler) MachineOf(id model.TaskID) (string, bool) {
	m, ok := s.where[id]
	return m, ok
}

// TasksOn returns the tasks placed on a machine, sorted.
func (s *Scheduler) TasksOn(machine string) []model.TaskID {
	m, ok := s.machines[machine]
	if !ok {
		return nil
	}
	out := make([]model.TaskID, 0, len(m.tasks))
	for id := range m.tasks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Commitment returns a machine's committed CPU fraction (may exceed 1
// under overcommit). Unknown machines return 0.
func (s *Scheduler) Commitment(machine string) float64 {
	m, ok := s.machines[machine]
	if !ok {
		return 0
	}
	return m.committed / m.capacity
}

// TasksPerMachine returns the task-count distribution across all
// machines, in machine-name order — the raw data of Figure 1(a).
func (s *Scheduler) TasksPerMachine() []int {
	names := make([]string, 0, len(s.machines))
	for name := range s.machines {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = len(s.machines[name].tasks)
	}
	return out
}
