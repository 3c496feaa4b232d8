package scheduler

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

func prodSpec(job string, idx int, cpu float64) TaskSpec {
	return TaskSpec{
		ID: model.TaskID{Job: model.JobName(job), Index: idx},
		Job: model.Job{
			Name: model.JobName(job), Class: model.ClassLatencySensitive,
			Priority: model.PriorityProduction, CPUPerTask: cpu,
		},
	}
}

func batchSpec(job string, idx int, cpu float64, prio model.Priority) TaskSpec {
	return TaskSpec{
		ID: model.TaskID{Job: model.JobName(job), Index: idx},
		Job: model.Job{
			Name: model.JobName(job), Class: model.ClassBatch,
			Priority: prio, CPUPerTask: cpu,
		},
	}
}

func newTwoMachineScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s := New(1.5)
	if err := s.AddMachine("m1", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMachine("m2", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddMachineValidation(t *testing.T) {
	s := New(1.5)
	if err := s.AddMachine("m", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMachine("m", model.PlatformA, 8); err == nil {
		t.Error("duplicate machine accepted")
	}
	if err := s.AddMachine("bad", model.PlatformA, 0); err == nil {
		t.Error("zero-capacity machine accepted")
	}
	if s.NumMachines() != 1 {
		t.Errorf("NumMachines = %d", s.NumMachines())
	}
}

func TestPlaceSpreadsLoad(t *testing.T) {
	s := newTwoMachineScheduler(t)
	p1, err := s.Place(prodSpec("a", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Place(prodSpec("a", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Machine == p2.Machine {
		t.Errorf("both tasks on %s; want spread", p1.Machine)
	}
	if m, ok := s.MachineOf(model.TaskID{Job: "a", Index: 0}); !ok || m != p1.Machine {
		t.Error("MachineOf wrong")
	}
}

func TestPlaceDuplicateFails(t *testing.T) {
	s := newTwoMachineScheduler(t)
	if _, err := s.Place(prodSpec("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(prodSpec("a", 0, 1)); err == nil {
		t.Error("duplicate placement accepted")
	}
}

func TestProductionAdmissionControl(t *testing.T) {
	// Production reservations must never oversubscribe capacity.
	s := New(1.5)
	if err := s.AddMachine("m", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Place(prodSpec("p", i, 2)); err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if _, err := s.Place(prodSpec("p", 4, 2)); err == nil {
		t.Error("production oversubscription admitted")
	}
}

func TestBatchOvercommit(t *testing.T) {
	s := New(1.5)
	if err := s.AddMachine("m", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	// 8 CPUs × 1.5 = 12 CPU of batch admits.
	for i := 0; i < 6; i++ {
		if _, err := s.Place(batchSpec("b", i, 2, model.PriorityBatch)); err != nil {
			t.Fatalf("batch placement %d: %v", i, err)
		}
	}
	if _, err := s.Place(batchSpec("b", 6, 2, model.PriorityBatch)); err == nil {
		t.Error("batch admitted past overcommit ceiling")
	}
	if got := s.Commitment("m"); got != 1.5 {
		t.Errorf("commitment = %v", got)
	}
}

func TestProductionPreemptsBatch(t *testing.T) {
	s := New(1.0) // no overcommit headroom: preemption must trigger
	if err := s.AddMachine("m", model.PlatformA, 8); err != nil {
		t.Fatal(err)
	}
	// Fill with batch.
	for i := 0; i < 4; i++ {
		if _, err := s.Place(batchSpec("b", i, 2, model.PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	// Best-effort task placed last — it should be first evicted.
	if _, err := s.Place(batchSpec("be", 0, 0, model.PriorityBestEffort)); err == nil {
		// zero-request defaults to 1 CPU; machine is full at 8/8 → this
		// should actually fail under overcommit 1.0.
		t.Fatal("unexpected admit")
	}
	p, err := s.Place(prodSpec("p", 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Evicted) == 0 {
		t.Fatal("no batch evicted for production arrival")
	}
	var evictedCPU float64
	for _, e := range p.Evicted {
		evictedCPU += e.Job.CPUPerTask
	}
	if evictedCPU < 4 {
		t.Errorf("evicted only %.1f CPU", evictedCPU)
	}
	if s.Commitment("m") > 1.0+1e-9 {
		t.Errorf("still overcommitted: %v", s.Commitment("m"))
	}
	// Evicted tasks are off the books and can be placed elsewhere.
	for _, e := range p.Evicted {
		if _, ok := s.MachineOf(e.ID); ok {
			t.Errorf("evicted %v still placed", e.ID)
		}
	}
}

func TestPreemptionOrderLowestPriorityNewestFirst(t *testing.T) {
	s := New(1.0)
	if err := s.AddMachine("m", model.PlatformA, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(batchSpec("batch", 0, 2, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(batchSpec("be", 0, 2, model.PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	p, err := s.Place(prodSpec("p", 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Evicted) != 1 || p.Evicted[0].ID.Job != "be" {
		t.Errorf("evicted = %+v, want the best-effort task", p.Evicted)
	}
}

func TestAntiAffinity(t *testing.T) {
	s := newTwoMachineScheduler(t)
	s.AvoidColocation("victim", "antagonist")
	p1, err := s.Place(batchSpec("antagonist", 0, 1, model.PriorityBatch))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Place(prodSpec("victim", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Machine == p2.Machine {
		t.Errorf("anti-affine jobs co-located on %s", p1.Machine)
	}
	// A second victim must also avoid the antagonist's machine, even
	// though that machine is less committed.
	p3, err := s.Place(prodSpec("victim", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Machine == p1.Machine {
		t.Error("victim placed beside antagonist")
	}
	// Fill the antagonist's machine to its overcommit ceiling; now a
	// new antagonist task has no feasible host (the only machine with
	// room runs victims).
	for i := 0; i < 21; i++ {
		if _, err := s.Place(batchSpec("filler", i, 1, model.PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Place(batchSpec("antagonist", 1, 1, model.PriorityBatch)); err == nil {
		t.Error("antagonist placed despite anti-affinity and full host")
	}
}

func TestRemove(t *testing.T) {
	s := newTwoMachineScheduler(t)
	sp := prodSpec("a", 0, 2)
	if _, err := s.Place(sp); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(sp.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(sp.ID); err == nil {
		t.Error("double remove accepted")
	}
	if _, ok := s.MachineOf(sp.ID); ok {
		t.Error("removed task still placed")
	}
}

func TestMigrateMovesOffCurrentMachine(t *testing.T) {
	s := newTwoMachineScheduler(t)
	sp := batchSpec("mr", 0, 1, model.PriorityBatch)
	p1, err := s.Place(sp)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Migrate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Machine == p1.Machine {
		t.Errorf("migrate stayed on %s", p1.Machine)
	}
	if m, _ := s.MachineOf(sp.ID); m != p2.Machine {
		t.Error("books not updated after migrate")
	}
}

func TestMigrateRollsBackWhenNowhereToGo(t *testing.T) {
	s := New(1.0)
	if err := s.AddMachine("only", model.PlatformA, 4); err != nil {
		t.Fatal(err)
	}
	sp := batchSpec("mr", 0, 1, model.PriorityBatch)
	if _, err := s.Place(sp); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate(sp); err == nil {
		t.Fatal("migrate succeeded with a single machine")
	}
	// Task must still be placed on the original machine.
	if m, ok := s.MachineOf(sp.ID); !ok || m != "only" {
		t.Errorf("rollback failed: %v %v", m, ok)
	}
	if _, err := s.Migrate(batchSpec("ghost", 0, 1, model.PriorityBatch)); err == nil {
		t.Error("migrating unplaced task accepted")
	}
}

func TestTasksOnAndTasksPerMachine(t *testing.T) {
	s := newTwoMachineScheduler(t)
	for i := 0; i < 6; i++ {
		if _, err := s.Place(batchSpec("b", i, 1, model.PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	per := s.TasksPerMachine()
	if len(per) != 2 || per[0]+per[1] != 6 {
		t.Errorf("TasksPerMachine = %v", per)
	}
	tasks := s.TasksOn("m1")
	if len(tasks) != per[0] {
		t.Errorf("TasksOn = %v", tasks)
	}
	if s.TasksOn("nope") != nil {
		t.Error("unknown machine should return nil")
	}
	// Sorted output.
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].String() > tasks[i].String() {
			t.Error("TasksOn not sorted")
		}
	}
}

func TestLargeClusterTaskDistribution(t *testing.T) {
	// Figure 1(a) shape: with mixed jobs on many machines the median
	// machine should host on the order of 5-30 tasks.
	s := New(1.5)
	for i := 0; i < 100; i++ {
		if err := s.AddMachine(fmt.Sprintf("m%03d", i), model.PlatformA, 16); err != nil {
			t.Fatal(err)
		}
	}
	placed := 0
	for j := 0; j < 20; j++ {
		for i := 0; i < 40; i++ {
			sp := batchSpec(fmt.Sprintf("job%d", j), i, 0.5, model.PriorityBatch)
			if j%3 == 0 {
				sp = prodSpec(fmt.Sprintf("job%d", j), i, 0.5)
			}
			if _, err := s.Place(sp); err == nil {
				placed++
			}
		}
	}
	if placed < 700 {
		t.Fatalf("placed only %d tasks", placed)
	}
	per := s.TasksPerMachine()
	minT, maxT := per[0], per[0]
	for _, n := range per {
		if n < minT {
			minT = n
		}
		if n > maxT {
			maxT = n
		}
	}
	if maxT-minT > 3 {
		t.Errorf("spread too uneven: min %d max %d", minT, maxT)
	}
}
