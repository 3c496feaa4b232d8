package checks

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// repoRoot is the repository root, from this package's directory.
const repoRoot = "../.."

// TestCommittedScenarios strictly decodes and validates every committed
// scenario — clustersim's scenario files (the built-in default among
// them), every file the README or the verify skill passes to
// -scenario, and every checks case — then places each catalog kind at
// each priority through Start and reads the placed jobs back.
func TestCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(repoRoot, "cmd/clustersim/scenarios/*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no clustersim scenarios: %v", err)
	}
	named := regexp.MustCompile(`-scenario\s+(\S+\.json)`)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllSubmatch(src, -1) {
			files = append(files, filepath.Join(repoRoot, string(m[1])))
		}
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var sc cluster.Scenario
			if err := cluster.DecodeStrict(src, &sc); err != nil {
				t.Fatal(err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	cases, err := filepath.Glob(filepath.Join(repoRoot, "checks/*/cases/*/case.json"))
	if err != nil || len(cases) == 0 {
		t.Fatalf("no checks cases: %v", err)
	}
	for _, f := range cases {
		dir := filepath.Base(filepath.Dir(f))
		t.Run(dir, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeCase(dir, src); err != nil {
				t.Fatal(err)
			}
		})
	}

	lsc, batch := model.ClassLatencySensitive, model.ClassBatch
	kinds := []struct {
		entry cluster.WorkloadEntry
		class model.JobClass
		def   model.Priority
		jobs  map[string]int // placed job → task count
	}{
		{cluster.WorkloadEntry{Kind: "websearch", Leaves: 3, Mixers: 2, Roots: 1}, lsc, model.PriorityProduction,
			map[string]int{"-leaf": 3, "-mixer": 2, "-root": 1}},
		{cluster.WorkloadEntry{Kind: "quiet_service", Tasks: 3, CPU: 0.5}, lsc, model.PriorityProduction, map[string]int{"": 3}},
		{cluster.WorkloadEntry{Kind: "batch", Tasks: 3, CPU: 0.5}, batch, model.PriorityBestEffort, map[string]int{"": 3}},
		{cluster.WorkloadEntry{Kind: "mapreduce", Tasks: 3, CPU: 0.5}, batch, model.PriorityBatch, map[string]int{"": 3}},
		{cluster.WorkloadEntry{Kind: "bimodal", Tasks: 3}, lsc, model.PriorityProduction, map[string]int{"": 3}},
		{cluster.WorkloadEntry{Kind: "antagonist", Tasks: 3, CPU: 1}, batch, model.PriorityBatch, map[string]int{"": 3}},
	}
	priorities := map[string]model.Priority{
		"production": model.PriorityProduction, "batch": model.PriorityBatch, "best_effort": model.PriorityBestEffort,
	}
	for _, k := range kinds {
		for _, p := range []string{"", "production", "batch", "best_effort"} {
			e := k.entry
			e.Name, e.Priority = "j", p
			label := p
			if p == "" {
				label = "default"
			}
			t.Run(e.Kind+"/"+label, func(t *testing.T) {
				sc := cluster.Scenario{Fleet: cluster.Fleet{Machines: 4}, Workload: []cluster.WorkloadEntry{e}}
				c, _, err := sc.Start(cluster.Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				want, ok := priorities[p]
				if !ok {
					want = k.def
				}
				for suffix, tasks := range k.jobs {
					id := model.TaskID{Job: model.JobName("j" + suffix)}
					m, ok := c.MachineOf(id)
					if !ok {
						t.Fatalf("%v not placed", id)
					}
					if job := m.Task(id).Job; job.Class != k.class || job.Priority != want || job.NumTasks != tasks {
						t.Errorf("%s: class %v priority %v tasks %d, want %v %v %d",
							id.Job, job.Class, job.Priority, job.NumTasks, k.class, want, tasks)
					}
				}
			})
		}
	}
}
