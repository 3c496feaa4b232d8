package cluster

import (
	"fmt"
	"time"

	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the job catalog: canonical job definitions with
// profiles calibrated so the simulated fleet reproduces the paper's
// measured shapes (Table 1 CPI levels, Figure 4 platform split,
// Figure 7 GEV noise, the §6 case-study antagonists).

// LeafProfile is the web-search leaf: cache-sensitive, strongly
// affected by co-runner pressure, with the diurnal drift of Figure 5
// and GEV-shaped measurement noise.
func LeafProfile() *interference.Profile {
	return &interference.Profile{
		BaseCPI: map[model.Platform]float64{
			model.PlatformA: 1.62,
			model.PlatformB: 1.95,
		},
		DefaultCPI:       1.62,
		CacheFootprint:   2.5,
		MemBandwidth:     1.2,
		Sensitivity:      0.9,
		BaseL3MPKI:       3.0,
		DiurnalAmplitude: 0.04,
		NoiseSigma:       0.07,
	}
}

// IntermediateProfile is the mixer tier: lighter compute.
func IntermediateProfile() *interference.Profile {
	return &interference.Profile{
		BaseCPI: map[model.Platform]float64{
			model.PlatformA: 1.25,
			model.PlatformB: 1.55,
		},
		DefaultCPI:       1.25,
		CacheFootprint:   1.5,
		MemBandwidth:     0.8,
		Sensitivity:      0.7,
		BaseL3MPKI:       2.0,
		DiurnalAmplitude: 0.03,
		NoiseSigma:       0.06,
	}
}

// RootProfile is the fan-out tier: tiny compute, mostly waiting.
func RootProfile() *interference.Profile {
	return &interference.Profile{
		BaseCPI: map[model.Platform]float64{
			model.PlatformA: 1.05,
			model.PlatformB: 1.3,
		},
		DefaultCPI:       1.05,
		CacheFootprint:   0.8,
		MemBandwidth:     0.4,
		Sensitivity:      0.5,
		BaseL3MPKI:       1.2,
		DiurnalAmplitude: 0.02,
		NoiseSigma:       0.05,
	}
}

// VideoProcessingProfile is the Case 1 antagonist: a streaming batch
// job that drags a large working set through the cache.
func VideoProcessingProfile() *interference.Profile {
	return &interference.Profile{
		DefaultCPI:     1.5,
		CacheFootprint: 9,
		MemBandwidth:   7,
		Sensitivity:    0.15,
		BaseL3MPKI:     14,
		NoiseSigma:     0.05,
	}
}

// ScientificSimProfile is the Case 4 antagonist: bandwidth-heavy
// numeric batch.
func ScientificSimProfile() *interference.Profile {
	return &interference.Profile{
		DefaultCPI:     0.9,
		CacheFootprint: 6,
		MemBandwidth:   9,
		Sensitivity:    0.1,
		BaseL3MPKI:     10,
		NoiseSigma:     0.05,
	}
}

// QuietServiceProfile is a well-behaved latency-sensitive tenant
// (BigTable tablet, storage server): modest footprint, some
// sensitivity.
func QuietServiceProfile() *interference.Profile {
	return &interference.Profile{
		BaseCPI: map[model.Platform]float64{
			model.PlatformA: 0.88,
			model.PlatformB: 1.1,
		},
		DefaultCPI:     0.88,
		CacheFootprint: 1.2,
		MemBandwidth:   0.6,
		Sensitivity:    0.6,
		BaseL3MPKI:     1.5,
		NoiseSigma:     0.06,
	}
}

// MapReduceProfile is a typical MapReduce worker.
func MapReduceProfile() *interference.Profile {
	return &interference.Profile{
		DefaultCPI:     1.36,
		CacheFootprint: 5,
		MemBandwidth:   4,
		Sensitivity:    0.25,
		BaseL3MPKI:     8,
		NoiseSigma:     0.08,
	}
}

// DefaultDiurnal is the serving-load curve used by search jobs.
func DefaultDiurnal(rng *stats.RNG) workload.DiurnalLoad {
	return workload.DiurnalLoad{
		Trough:   0.35,
		Peak:     0.95,
		PeakHour: 18,
		Jitter:   0.05,
		RNG:      rng.Stream("load"),
	}
}

// WebSearchJob builds the three-tier search job: leaves,
// intermediates, and roots wired through one SearchTree. It returns
// the JobDefs (add all of them) and the tree (register tree.EndTick
// with Cluster.OnTick). Task CPU requests are sized so leaves dominate.
//
// Every task gets its own copy of the diurnal load curve with its own
// jitter stream forked from the task's RNG. A single shared curve with
// one jitter stream would be both a data race under parallel cluster stepping and
// an ordering dependence (whichever task sampled the shared stream
// first would steal the next draw), so load jitter is per-task by
// construction. The jitter-free curve is shared (DiurnalLoad.Shared):
// the job's tasks compute it once per tick between them.
func WebSearchJob(name string, leaves, intermediates, roots int, rng *stats.RNG) ([]JobDef, *workload.SearchTree) {
	tree := workload.NewSearchTree()
	load := DefaultDiurnal(rng.Fork(name)).Shared()
	load.RNG = nil // template: each task forks its own jitter stream
	mk := func(tier workload.Tier, suffix string, n int, profile *interference.Profile, maxCPU float64) JobDef {
		return JobDef{
			Job: model.Job{
				Name:       model.JobName(name + "-" + suffix),
				Class:      model.ClassLatencySensitive,
				Priority:   model.PriorityProduction,
				NumTasks:   n,
				CPUPerTask: maxCPU,
			},
			Profile: profile,
			NewWorkload: func(id model.TaskID, wrng *stats.RNG) machine.Workload {
				base := profile.DefaultCPI
				l := load
				l.RNG = wrng.Fork("load-jitter").Stream("load")
				return workload.NewSearchTask(tier, tree, l, maxCPU, base, wrng.Stream("noise"))
			},
		}
	}
	defs := []JobDef{
		mk(workload.TierLeaf, "leaf", leaves, LeafProfile(), 2.0),
		mk(workload.TierIntermediate, "mixer", intermediates, IntermediateProfile(), 1.2),
		mk(workload.TierRoot, "root", roots, RootProfile(), 0.8),
	}
	return defs, tree
}

// BatchJob builds a TPS-reporting throughput batch job (Figure 2's
// 2600-task shape at whatever scale the caller picks).
func BatchJob(name string, tasks int, cpuPerTask float64, priority model.Priority) JobDef {
	profile := MapReduceProfile()
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassBatch,
			Priority:   priority,
			NumTasks:   tasks,
			CPUPerTask: cpuPerTask,
		},
		Profile: profile,
		NewWorkload: func(id model.TaskID, _ *stats.RNG) machine.Workload {
			return workload.NewBatch(cpuPerTask, 16, 2.6)
		},
	}
}

// MapReduceJob builds a MapReduce job whose workers react to capping
// per the given reaction (Cases 5 and 6).
func MapReduceJob(name string, tasks int, cpuPerTask float64, reaction workload.CapReaction) JobDef {
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassBatch,
			Priority:   model.PriorityBatch,
			NumTasks:   tasks,
			CPUPerTask: cpuPerTask,
		},
		Profile:       MapReduceProfile(),
		RestartOnExit: true,
		NewWorkload: func(id model.TaskID, _ *stats.RNG) machine.Workload {
			return workload.NewMapReduce(cpuPerTask, reaction)
		},
	}
}

// AntagonistJob builds a Case 1-style heavy batch antagonist
// (video processing by default).
func AntagonistJob(name string, tasks int, cpuPerTask float64, priority model.Priority) JobDef {
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassBatch,
			Priority:   priority,
			NumTasks:   tasks,
			CPUPerTask: cpuPerTask,
		},
		Profile: VideoProcessingProfile(),
		NewWorkload: func(id model.TaskID, _ *stats.RNG) machine.Workload {
			return &workload.Steady{CPU: cpuPerTask, Threads: 12}
		},
	}
}

// QuietServiceJob builds a well-behaved latency-sensitive tenant job.
func QuietServiceJob(name string, tasks int, cpuPerTask float64) JobDef {
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassLatencySensitive,
			Priority:   model.PriorityProduction,
			NumTasks:   tasks,
			CPUPerTask: cpuPerTask,
		},
		Profile: QuietServiceProfile(),
		NewWorkload: func(id model.TaskID, _ *stats.RNG) machine.Workload {
			return &workload.Steady{CPU: cpuPerTask, Threads: 20}
		},
	}
}

// BimodalJob builds the Case 3 self-inflicted bimodal service.
func BimodalJob(name string, tasks int) JobDef {
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassLatencySensitive,
			Priority:   model.PriorityProduction,
			NumTasks:   tasks,
			CPUPerTask: 0.5,
		},
		Profile: workload.CaseThreeProfile(),
		NewWorkload: func(id model.TaskID, _ *stats.RNG) machine.Workload {
			return workload.NewBimodal()
		},
	}
}

// DecoyJob builds innocent bursty tenants: plenty of visible CPU in
// on/off pulses, but a near-zero interference footprint — they cannot
// be causing anyone's CPI spikes, so convicting one is always a false
// positive. Per-task phases come from the task's own RNG stream, so
// some decoy somewhere is always chance-aligned with a victim.
func DecoyJob(name string, tasks int) JobDef {
	return JobDef{
		Job: model.Job{
			Name:       model.JobName(name),
			Class:      model.ClassBatch,
			Priority:   model.PriorityBatch,
			NumTasks:   tasks,
			CPUPerTask: 2,
		},
		Profile: &interference.Profile{
			DefaultCPI: 1.0, CacheFootprint: 0.05, MemBandwidth: 0.02,
			Sensitivity: 0.1, BaseL3MPKI: 0.5, NoiseSigma: 0.05,
		},
		NewWorkload: func(id model.TaskID, rng *stats.RNG) machine.Workload {
			r := rng.Stream("phase")
			return &workload.Pulse{
				OnCPU: 2, OffCPU: 0.05,
				OnFor: 4 * time.Minute, OffFor: 4 * time.Minute,
				Threads: 8,
				Phase:   time.Duration(r.Float64() * float64(8*time.Minute)),
			}
		},
	}
}

// WarmUpSpecs runs the cluster for warm sim-time and then forces a
// spec recompute, giving every robust job a pushed spec. Experiments
// use this instead of simulating a full 24-hour aggregation cycle.
func WarmUpSpecs(c *Cluster, warm time.Duration) ([]model.Spec, error) {
	c.Run(warm)
	specs := c.RecomputeSpecs()
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: warm-up of %v produced no robust specs", warm)
	}
	return specs, nil
}
