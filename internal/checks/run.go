package checks

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunOptions tune a case run without changing its declared meaning.
type RunOptions struct {
	// Workers overrides the case's fleet.workers when > 0 (CLI knob
	// for "how does this class behave at width N").
	Workers int
	// Log, when non-nil, receives one-line progress messages.
	Log func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// memSamples is roughly how many MemStats snapshots a run takes to
// find the peak footprint; ReadMemStats is a stop-the-world, so the
// count is bounded regardless of run length.
const memSamples = 32

// RunCase executes one case against a fresh simulated cluster and
// judges the run against the case's budgets. The class contributes
// metadata and inherited defaults only — GOMAXPROCS pinning is the
// caller's job (it is process-global, so the CLI does it once).
//
// The run has three phases: build + warmup (untimed; ends with a
// forced spec recompute so detection has specs from tick one of the
// measured window), the measured run (Duration/Tick steps, wall-clock
// timed, MemStats-sampled), and evaluation (budgets vs. the obs
// registry, FaultStats, and the incident log).
func RunCase(mc *MachineClass, cs *Case, opts RunOptions) (*Verdict, error) {
	if err := cs.Validate(); err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	faults, err := cs.faultPlan()
	if err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	workers := cs.Fleet.Workers
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Config{
		Seed:              cs.Seed,
		Machines:          cs.Fleet.Machines,
		CPUsPerMachine:    cs.Fleet.CPUsPerMachine,
		PlatformBFraction: cs.Fleet.PlatformBFraction,
		Workers:           workers,
		Shards:            cs.Fleet.Shards,
		TickInterval:      cs.Tick,
		Params: core.Params{
			MinSamplesPerTask: cs.MinSamplesPerTask,
			ReportOnly:        cs.ReportOnly,
		},
		Registry: reg,
		// Every run has spools, ingress quarantine and fault accounting,
		// whatever the plan holds, so the spool-drop and quarantine
		// budgets always measure something real.
		Faults: faults,
	})
	defer c.Close()

	if err := addWorkload(c, cs, false); err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	opts.logf("case %s: %d machines, warmup %v", cs.Name, cs.Fleet.Machines, cs.Warmup)
	if cs.Warmup > 0 {
		c.Run(cs.Warmup)
		// Force a recompute+push: measured-phase detection runs against
		// warm specs, as in every acceptance experiment.
		c.RecomputeSpecs()
	}
	if err := addWorkload(c, cs, true); err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	// Only what happens inside the measured window is judged: incidents
	// (and caps) raised during warmup belong to an unwarmed fleet.
	warmIncidents := len(c.Incidents())

	steps := int(cs.Duration / cs.Tick)
	sampleEvery := steps / memSamples
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, peakSys := ms.Mallocs, ms.Sys
	opts.logf("case %s: measuring %d steps (%v simulated)", cs.Name, steps, cs.Duration)
	start := time.Now()
	for i := 0; i < steps; i++ {
		c.Step()
		if (i+1)%sampleEvery == 0 {
			runtime.ReadMemStats(&ms)
			if ms.Sys > peakSys {
				peakSys = ms.Sys
			}
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms)
	if ms.Sys > peakSys {
		peakSys = ms.Sys
	}

	m := Measured{
		WallSeconds: wall.Seconds(),
		SimSeconds:  (time.Duration(steps) * cs.Tick).Seconds(),
		Ticks:       steps,
	}
	if wall > 0 {
		m.StepsPerSec = float64(steps) / wall.Seconds()
		m.RealtimeFactor = m.StepsPerSec * cs.Tick.Seconds()
	}
	m.AllocsPerStep = float64(ms.Mallocs-mallocs0) / float64(steps)
	m.PeakRSSMB = float64(peakSys) / (1 << 20)

	fs := c.FaultStats()
	m.SpoolDrops = fs.SpoolDropped
	m.Quarantined = fs.Quarantined

	expected := cs.expectedCapJobs()
	incidents := c.Incidents()[warmIncidents:]
	m.Incidents = len(incidents)
	for _, inc := range incidents {
		for _, d := range append([]core.Decision{inc.Decision}, inc.GroupDecisions...) {
			if d.Action != core.ActionCap {
				continue
			}
			m.CapsTotal++
			if !expected[string(d.Target.Job)] {
				m.FalseCaps++
			}
		}
	}
	m.SpecStalenessP95Seconds = core.NewMetrics(reg).SpecStaleness.Quantile(0.95)

	checks, pass := cs.Budgets.evaluate(m)
	v := &Verdict{
		SchemaVersion: VerdictSchemaVersion,
		Class:         mc.Name,
		Case:          cs.Name,
		Description:   cs.Description,
		Seed:          cs.Seed,
		Machines:      cs.Fleet.Machines,
		Workers:       workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Chaos:         cs.Chaos,
		Pass:          pass,
		Checks:        checks,
		Measured:      m,
	}
	opts.logf("%s", v.Summary())
	return v, nil
}

// addWorkload installs the case's workload entries whose AfterWarmup
// flag matches afterWarmup.
func addWorkload(c *cluster.Cluster, cs *Case, afterWarmup bool) error {
	for _, w := range cs.Workload {
		if w.flag(w.AfterWarmup) != afterWarmup {
			continue
		}
		switch w.Kind {
		case "websearch":
			defs, tree := cluster.WebSearchJob(w.Name, w.Leaves, w.Mixers, w.Roots, c.RNG())
			for _, d := range defs {
				if err := c.AddJob(d); err != nil {
					return err
				}
			}
			c.OnTick(func(time.Time) { tree.EndTick() })
		case "quiet_service":
			if err := c.AddJob(cluster.QuietServiceJob(w.Name, w.Tasks, w.CPU)); err != nil {
				return err
			}
		case "batch":
			if err := c.AddJob(cluster.BatchJob(w.Name, w.Tasks, w.CPU, model.PriorityBestEffort)); err != nil {
				return err
			}
		case "mapreduce":
			if err := c.AddJob(cluster.MapReduceJob(w.Name, w.Tasks, w.CPU, workload.ReactLameDuck)); err != nil {
				return err
			}
		case "bimodal":
			if err := c.AddJob(cluster.BimodalJob(w.Name, w.Tasks)); err != nil {
				return err
			}
		case "antagonist":
			if err := c.AddJob(cluster.AntagonistJob(w.Name, w.Tasks, w.CPU, model.PriorityBatch)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown workload kind %q", w.Kind)
		}
	}
	return nil
}
