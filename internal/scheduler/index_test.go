package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
)

// scanScheduler is the placement rule the index replaced, kept as the
// reference: every placement scans every machine in name order and
// re-adds each machine's requests from scratch, and preemption evicts
// the lowest-priority, newest batch work until the machine is back
// under its overcommit ceiling.
type scanScheduler struct {
	overcommit float64
	machines   []*scanMachine // sorted by name
	where      map[model.TaskID]*scanMachine
	avoid      map[model.JobName]map[model.JobName]bool
	seq        int64
}

type scanMachine struct {
	name     string
	capacity float64
	tasks    map[model.TaskID]placement
}

func newScanScheduler(overcommit float64) *scanScheduler {
	return &scanScheduler{
		overcommit: overcommit,
		where:      make(map[model.TaskID]*scanMachine),
		avoid:      make(map[model.JobName]map[model.JobName]bool),
	}
}

func (r *scanScheduler) addMachine(name string, cpus float64) {
	m := &scanMachine{name: name, capacity: cpus, tasks: make(map[model.TaskID]placement)}
	i := sort.Search(len(r.machines), func(i int) bool { return r.machines[i].name >= name })
	r.machines = slices.Insert(r.machines, i, m)
}

func (r *scanScheduler) avoidColocation(a, b model.JobName) {
	for _, p := range [][2]model.JobName{{a, b}, {b, a}} {
		if r.avoid[p[0]] == nil {
			r.avoid[p[0]] = make(map[model.JobName]bool)
		}
		r.avoid[p[0]][p[1]] = true
	}
}

// sums returns the machine's committed and production-reserved CPU.
func (m *scanMachine) sums() (committed, prod float64) {
	var all, prods []float64
	for _, p := range m.tasks {
		all = append(all, p.spec.cpuRequest())
		if p.spec.Job.Priority.IsProduction() {
			prods = append(prods, p.spec.cpuRequest())
		}
	}
	return sumSorted(all), sumSorted(prods)
}

func (r *scanScheduler) place(task TaskSpec, exclude string) (string, []model.TaskID, bool) {
	if _, ok := r.where[task.ID]; ok {
		return "", nil, false
	}
	req := task.cpuRequest()
	var best *scanMachine
	var bestScore float64
	for _, m := range r.machines {
		if m.name == exclude {
			continue
		}
		blocked := false
		for _, p := range m.tasks {
			blocked = blocked || r.avoid[task.Job.Name][p.spec.Job.Name]
		}
		if blocked {
			continue
		}
		committed, prod := m.sums()
		if task.Job.Priority.IsProduction() {
			if prod+req > m.capacity {
				continue
			}
		} else if committed+req > m.capacity*r.overcommit {
			continue
		}
		if score := committed / m.capacity; best == nil || score < bestScore {
			best, bestScore = m, score
		}
	}
	if best == nil {
		return "", nil, false
	}
	r.book(best, task)
	var evicted []model.TaskID
	if task.Job.Priority.IsProduction() {
		var cands []placement
		for _, p := range best.tasks {
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
		for _, p := range cands {
			if committed, _ := best.sums(); committed <= best.capacity*r.overcommit {
				break
			}
			r.remove(p.spec.ID)
			evicted = append(evicted, p.spec.ID)
		}
	}
	return best.name, evicted, true
}

func (r *scanScheduler) book(m *scanMachine, task TaskSpec) {
	r.seq++
	m.tasks[task.ID] = placement{spec: task, seq: r.seq}
	r.where[task.ID] = m
}

func (r *scanScheduler) remove(id model.TaskID) bool {
	m, ok := r.where[id]
	if ok {
		delete(m.tasks, id)
		delete(r.where, id)
	}
	return ok
}

func (r *scanScheduler) migrate(task TaskSpec) (string, []model.TaskID, bool) {
	m, ok := r.where[task.ID]
	if !ok {
		return "", nil, false
	}
	r.remove(task.ID)
	name, evicted, ok := r.place(task, m.name)
	if !ok {
		r.book(m, task)
	}
	return name, evicted, ok
}

// TestIndexMatchesScan drives the scheduler and the reference scan
// with one seeded stream of operations — production, batch and
// best-effort arrivals, exits, migrations (some of which must roll
// back), production-driven preemption with the evicted work re-placed,
// avoid pairs, machines of unequal capacity, and machines registered
// out of name order after placement has begun — and requires the same
// machine and the same evictions from every call, the same books on
// every machine, and an index that stays ordered on current scores.
func TestIndexMatchesScan(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 1500
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) { indexMatchesScan(t, seed, steps) })
	}
}

func indexMatchesScan(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	s, ref := New(1.25), newScanScheduler(1.25)
	capacities := []float64{4, 8, 12, 16, 24}
	addMachine := func() {
		name := fmt.Sprintf("m%03d", rng.Intn(1000))
		cpus := capacities[rng.Intn(len(capacities))]
		if s.AddMachine(name, model.PlatformA, cpus) == nil {
			ref.addMachine(name, cpus)
		}
	}
	for i := 0; i < 8; i++ {
		addMachine()
	}
	jobs := []struct {
		name model.JobName
		prio model.Priority
	}{
		{"web", model.PriorityProduction}, {"kv", model.PriorityProduction},
		{"lat", model.PriorityProduction}, {"logs", model.PriorityBatch},
		{"mr", model.PriorityBatch}, {"scav", model.PriorityBestEffort},
	}
	requests := []float64{0, 0.25, 0.5, 1, 1.5, 2, 3}
	placed := map[model.TaskID]TaskSpec{}
	next := 0
	var evictions, rollbacks, migrations, lateAdds int

	// pick draws a placed task uniformly, independent of map order.
	pick := func() model.TaskID {
		ids := make([]model.TaskID, 0, len(placed))
		for id := range placed {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i].Compare(ids[j]) < 0 })
		return ids[rng.Intn(len(ids))]
	}
	// placeBoth places task on both schedulers, compares the outcome,
	// and re-places what preemption evicted, as the cluster does.
	var placeBoth func(step int, task TaskSpec, migrate bool)
	placeBoth = func(step int, task TaskSpec, migrate bool) {
		var got Placement
		var err error
		var want string
		var wantEvicted []model.TaskID
		var ok bool
		if migrate {
			got, err = s.Migrate(task)
			want, wantEvicted, ok = ref.migrate(task)
		} else {
			got, err = s.Place(task)
			want, wantEvicted, ok = ref.place(task, "")
		}
		if (err == nil) != ok {
			t.Fatalf("step %d: %v (migrate=%v): index err=%v, scan ok=%v", step, task.ID, migrate, err, ok)
		}
		if !ok {
			if migrate {
				rollbacks++
			}
			return
		}
		var gotEvicted []model.TaskID
		for _, e := range got.Evicted {
			gotEvicted = append(gotEvicted, e.ID)
		}
		if got.Machine != want || !slices.Equal(gotEvicted, wantEvicted) {
			t.Fatalf("step %d: %v (migrate=%v): index picked %s evicting %v, scan %s evicting %v",
				step, task.ID, migrate, got.Machine, gotEvicted, want, wantEvicted)
		}
		placed[task.ID] = task
		for _, e := range got.Evicted {
			evictions++
			delete(placed, e.ID)
			placeBoth(step, e, false)
		}
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(200); {
		case op < 1:
			lateAdds++
			addMachine()
		case op < 5:
			a, b := jobs[rng.Intn(len(jobs))].name, jobs[rng.Intn(len(jobs))].name
			if a != b {
				s.AvoidColocation(a, b)
				ref.avoidColocation(a, b)
			}
		case op < 120:
			j := jobs[rng.Intn(len(jobs))]
			next++
			task := TaskSpec{
				ID:  model.TaskID{Job: j.name, Index: next},
				Job: model.Job{Name: j.name, Priority: j.prio, CPUPerTask: requests[rng.Intn(len(requests))]},
			}
			placeBoth(step, task, false)
		case op < 175 && len(placed) > 0:
			id := pick()
			if err := s.Remove(id); (err == nil) != ref.remove(id) {
				t.Fatalf("step %d: remove %v disagrees: %v", step, id, err)
			}
			delete(placed, id)
		case len(placed) > 0:
			migrations++
			placeBoth(step, placed[pick()], true)
		}
		if step%100 == 0 || step == steps-1 {
			checkBooks(t, step, s, ref)
		}
	}
	t.Logf("seed %d: %d machines (%d added late), %d tasks placed, %d evictions, %d migrations (%d rolled back)",
		seed, s.NumMachines(), lateAdds, len(placed), evictions, migrations, rollbacks)
	if evictions == 0 || rollbacks == 0 || lateAdds == 0 {
		t.Fatalf("stream did not exercise preemption (%d), rollback (%d) and late machines (%d)",
			evictions, rollbacks, lateAdds)
	}
}

// checkBooks requires every machine's tasks and commitment to match
// the reference, and the index to hold every machine exactly once, in
// (score, name) order, keyed on its current score, as a heap on
// priority.
func checkBooks(t *testing.T, step int, s *Scheduler, ref *scanScheduler) {
	t.Helper()
	for _, rm := range ref.machines {
		var want []model.TaskID
		for id := range rm.tasks {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
		got := s.TasksOn(rm.name)
		if len(got) == 0 {
			got = nil
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: %s holds %v, reference %v", step, rm.name, got, want)
		}
		if committed, _ := rm.sums(); s.Commitment(rm.name) != committed/rm.capacity {
			t.Fatalf("step %d: %s commitment %v, reference %v", step, rm.name,
				s.Commitment(rm.name), committed/rm.capacity)
		}
	}
	var walk []*machineState
	var visit func(m, parent *machineState)
	visit = func(m, parent *machineState) {
		if m == nil {
			return
		}
		if parent != nil && m.prio > parent.prio {
			t.Fatalf("step %d: %s outranks its parent %s", step, m.name, parent.name)
		}
		visit(m.left, m)
		walk = append(walk, m)
		visit(m.right, m)
	}
	visit(s.index.root, nil)
	if len(walk) != s.NumMachines() {
		t.Fatalf("step %d: index holds %d machines, scheduler %d", step, len(walk), s.NumMachines())
	}
	for i, m := range walk {
		if m.key != m.committed/m.capacity {
			t.Fatalf("step %d: %s keyed on %v, score %v", step, m.name, m.key, m.committed/m.capacity)
		}
		if i > 0 && !before(walk[i-1], m) {
			t.Fatalf("step %d: index out of order at %s, %s", step, walk[i-1].name, m.name)
		}
	}
}
