// Package scheduler implements the central cluster scheduler CPI²
// assumes (§2): every cluster runs a scheduler and admission
// controller that keeps latency-sensitive reservations from being
// oversubscribed while speculatively over-committing resources for
// batch work. It supports priority bands, preemption of batch work
// when machines run too hot, kill-and-restart migration of persistent
// antagonists, and the cross-job anti-affinity constraints that §5/§9
// describe ("ask the cluster scheduler to avoid co-locating their job
// and these antagonists in the future").
package scheduler

import (
	"fmt"
	"slices"
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
// The committed/prod-reserved sums are cached and recomputed lazily
// after mutations. The recompute always re-sums the FULL sorted
// multiset (never incrementally adds/subtracts one request): float
// addition is not associative, so an incremental sum would drift an
// ULP away from the from-scratch sum and flip least-committed ties —
// breaking the cluster's bit-reproducibility guarantee. Caching only
// changes when the sum is computed, never its value.
type machineState struct {
	name     string
	platform model.Platform
	capacity float64
	tasks    map[model.TaskID]*placement

	jobs  map[model.JobName]int // resident task count per job
	dirty bool
	// committedSum/prodSum are valid when !dirty; reqs/prodReqs are the
	// recompute scratch, reused across refreshes.
	committedSum float64
	prodSum      float64
	reqs         []float64
	prodReqs     []float64
}

// insert books a placement on the machine.
func (m *machineState) insert(p *placement) {
	m.tasks[p.spec.ID] = p
	if m.jobs == nil {
		m.jobs = make(map[model.JobName]int)
	}
	m.jobs[p.spec.Job.Name]++
	m.dirty = true
}

// erase releases a placement.
func (m *machineState) erase(id model.TaskID) {
	p, ok := m.tasks[id]
	if !ok {
		return
	}
	delete(m.tasks, id)
	if m.jobs[p.spec.Job.Name]--; m.jobs[p.spec.Job.Name] <= 0 {
		delete(m.jobs, p.spec.Job.Name)
	}
	m.dirty = true
}

// refresh recomputes the cached sums if a mutation invalidated them.
func (m *machineState) refresh() {
	if !m.dirty {
		return
	}
	m.reqs = m.reqs[:0]
	m.prodReqs = m.prodReqs[:0]
	for _, p := range m.tasks {
		r := p.spec.cpuRequest()
		m.reqs = append(m.reqs, r)
		if p.spec.Job.Priority.IsProduction() {
			m.prodReqs = append(m.prodReqs, r)
		}
	}
	m.committedSum = sumSorted(m.reqs)
	m.prodSum = sumSorted(m.prodReqs)
	m.dirty = false
}

// committed returns the machine's committed CPU. The requests are
// summed in sorted-value order: float addition is not associative, so
// summing in Go's randomized map-iteration order would make placement
// scores differ across runs by an ULP — enough to flip least-committed
// ties and break the cluster's bit-reproducibility guarantee.
func (m *machineState) committed() float64 {
	m.refresh()
	return m.committedSum
}

func (m *machineState) prodReserved() float64 {
	m.refresh()
	return m.prodSum
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
	// Overcommit is the batch over-commit factor: total committed CPU
	// on a machine may reach capacity × Overcommit (default 1.5).
	Overcommit float64

	machines map[string]*machineState
	// ordered holds the machine states sorted by name, for determinism:
	// the placement scan is O(machines) per task, and indexing a slice
	// instead of hashing 100k names per placement is what keeps fleet
	// construction tractable at that scale.
	ordered []*machineState
	where   map[model.TaskID]string
	avoid   map[model.JobName]map[model.JobName]bool
	seq     int64
}

// New returns a scheduler with the given batch overcommit factor
// (values ≤ 1 mean "no overcommit").
func New(overcommit float64) *Scheduler {
	if overcommit < 1 {
		overcommit = 1
	}
	return &Scheduler{
		Overcommit: overcommit,
		machines:   make(map[string]*machineState),
		where:      make(map[model.TaskID]string),
		avoid:      make(map[model.JobName]map[model.JobName]bool),
	}
}

// AddMachine registers a machine with the given CPU capacity.
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
	}
	s.machines[name] = m
	// Insert at the sorted position instead of re-sorting: registering
	// a fleet of n machines is O(n log n) total when names arrive in
	// order (the common case) instead of n full sorts.
	i := sort.Search(len(s.ordered), func(i int) bool { return s.ordered[i].name >= name })
	s.ordered = slices.Insert(s.ordered, i, m)
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

// Avoids reports whether job must avoid machines running other.
func (s *Scheduler) Avoids(job, other model.JobName) bool {
	return s.avoid[job][other]
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
	if err := s.Remove(task.ID); err != nil {
		return Placement{}, err
	}
	p, err := s.place(task, cur)
	if err != nil {
		// Roll back to the original machine.
		m := s.machines[cur]
		s.seq++
		m.insert(&placement{spec: task, seq: s.seq})
		s.where[task.ID] = cur
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
	var best *machineState
	var bestScore float64
	for _, m := range s.ordered {
		if m.name == exclude {
			continue
		}
		if len(avoid) > 0 && violatesAffinity(m, avoid) {
			continue
		}
		if isProd {
			if m.prodReserved()+req > m.capacity {
				continue
			}
		} else {
			if m.committed()+req > m.capacity*s.Overcommit {
				continue
			}
		}
		// Least-committed-first keeps load spread (and tasks-per-machine
		// distributed like Figure 1); ties break on name order.
		score := m.committed() / m.capacity
		if best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	if best == nil {
		return Placement{}, fmt.Errorf("scheduler: no feasible machine for %v (req %.2f CPU, %s)",
			task.ID, req, task.Job.Priority)
	}

	s.seq++
	best.insert(&placement{spec: task, seq: s.seq})
	s.where[task.ID] = best.name

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

func violatesAffinity(m *machineState, avoid map[model.JobName]bool) bool {
	for other := range avoid {
		if m.hasJob(other) {
			return true
		}
	}
	return false
}

func (s *Scheduler) preemptIfOvercommitted(m *machineState) []TaskSpec {
	limit := m.capacity * s.Overcommit
	if m.committed() <= limit {
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
		if m.committed() <= limit {
			break
		}
		m.erase(p.spec.ID)
		delete(s.where, p.spec.ID)
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
	s.machines[name].erase(id)
	delete(s.where, id)
	return nil
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
	return m.committed() / m.capacity
}

// TasksPerMachine returns the task-count distribution across all
// machines — the raw data of Figure 1(a).
func (s *Scheduler) TasksPerMachine() []int {
	out := make([]int, 0, len(s.ordered))
	for _, m := range s.ordered {
		out = append(out, len(m.tasks))
	}
	return out
}
