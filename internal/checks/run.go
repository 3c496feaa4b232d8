package checks

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// RunOptions tune a case run without changing its declared meaning.
type RunOptions struct {
	// Workers is the cluster's parallel tick width (0 = GOMAXPROCS),
	// the CLI knob for "how does this class behave at width N".
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
// The run has three phases: the scenario's Start (untimed; its warmup
// ends with a forced spec recompute so detection has specs from tick
// one of the measured window), the measured run (Duration/Tick steps,
// wall-clock timed, MemStats-sampled), and evaluation (budgets vs. the
// obs registry, FaultStats, and the incident log).
func RunCase(mc *MachineClass, cs *Case, opts RunOptions) (*Verdict, error) {
	if err := cs.Validate(); err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	reg := obs.NewRegistry()
	opts.logf("case %s: %d machines, warmup %v", cs.Name, cs.Fleet.Machines, cs.Warmup)
	c, warm, err := cs.Start(cluster.Config{Workers: opts.Workers, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("checks: case %s: %v", cs.Name, err)
	}
	defer c.Close()

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

	// Only what happens inside the measured window is judged: incidents
	// (and caps) raised during warmup belong to an unwarmed fleet.
	score := cs.Score(c, warm)
	m.Incidents, m.CapsTotal, m.FalseCaps = score.Incidents, score.Caps, score.FalseCaps
	m.SpecStalenessP95Seconds = core.NewMetrics(reg).SpecStaleness.Quantile(0.95)

	checks, pass := cs.Budgets.evaluate(m)
	v := &Verdict{
		SchemaVersion: VerdictSchemaVersion,
		Class:         mc.Name,
		Case:          cs.Name,
		Description:   cs.Description,
		Seed:          cs.Seed,
		Machines:      cs.Fleet.Machines,
		Workers:       opts.Workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Chaos:         cs.Chaos,
		Pass:          pass,
		Checks:        checks,
		Measured:      m,
	}
	opts.logf("%s", v.Summary())
	return v, nil
}
