package experiments

import (
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register("ext-numa", extNUMA)
}

// extNUMA: on a two-socket machine, a cache-hammering batch task hurts
// only victims on its own socket (each socket has a private LLC and
// memory controller). CPI² on the NUMA machine must detect and cap for
// the co-socket victim and must stay silent for the cross-socket one —
// no false blame merely because a heavy task is *somewhere* on the
// machine. The related-work NUMA-contention literature (Blagodurov et
// al.) motivates modelling this.
func extNUMA(o Options) (*Report, error) {
	run := func(sockets int) (incidents int, caps int, victimCPI float64) {
		hw := interference.DefaultMachine(model.PlatformA)
		hw.Sockets = sockets
		rng := stats.NewRNG(o.Seed)
		m := machine.New("numa", hw, 24, rng.Stream("noise"))
		a := agent.New(m, core.DefaultParams(), nil)

		victim := model.TaskID{Job: "svc", Index: 0}
		vprof := &interference.Profile{
			DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
			Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.05,
		}
		vjob := model.Job{Name: "svc", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
		if err := m.AddTask(victim, vprof, &workload.Steady{CPU: 1.2, Threads: 12}); err != nil {
			panic(err)
		}
		a.RegisterTask(victim, vjob)
		a.DeliverSpec(model.Spec{
			Job: "svc", Platform: hw.Platform,
			NumSamples: 100000, NumTasks: 300, CPIMean: 1.02, CPIStddev: 0.08,
		})

		// Socket balancing places the second task on the other socket
		// (when there are two): the antagonist shares the machine but
		// not the cache.
		antag := model.TaskID{Job: "hog", Index: 0}
		ajob := model.Job{Name: "hog", Class: model.ClassBatch, Priority: model.PriorityBatch}
		if err := m.AddTask(antag, &interference.Profile{
			DefaultCPI: 1.5, CacheFootprint: 8, MemBandwidth: 6,
			Sensitivity: 0.1, BaseL3MPKI: 12, NoiseSigma: 0.05,
		}, &workload.Steady{CPU: 6, Threads: 16}); err != nil {
			panic(err)
		}
		a.RegisterTask(antag, ajob)

		now := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
		var cpiSum float64
		var cpiN int
		for s := 0; s < 20*60; s++ {
			incs := tickNode(m, a, now)
			incidents += len(incs)
			for _, inc := range incs {
				if inc.Decision.Action == core.ActionCap {
					caps++
				}
			}
			if s%60 == 0 {
				cpiSum += m.Task(victim).Last().CPI
				cpiN++
			}
			now = now.Add(time.Second)
		}
		return incidents, caps, cpiSum / float64(cpiN)
	}

	incs1, caps1, cpi1 := run(1)
	incs2, caps2, cpi2 := run(2)

	rep := &Report{
		ID:    "ext-numa",
		Title: "extension: NUMA-aware interference (two-socket machines)",
		PaperClaim: "sockets have private LLCs and memory controllers; a heavy task " +
			"only hurts co-socket victims, and CPI² must not blame a busy task on " +
			"the other socket",
	}
	rep.AddMetric("victim CPI, shared socket", cpi1, 0, "antagonist co-located in the cache domain")
	rep.AddMetric("caps, shared socket", float64(caps1), 0, "CPI² acts")
	rep.AddMetric("victim CPI, cross socket", cpi2, 1.0, "isolation by topology")
	rep.AddMetric("incidents, cross socket", float64(incs2), 0, "no anomaly, no blame")
	rep.AddMetric("caps, cross socket", float64(caps2), 0, "")
	_ = incs1
	return rep, nil
}
