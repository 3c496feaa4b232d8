package experiments

import (
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/perfcnt"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file implements the §7 evaluation methodology: several hundred
// capping trials. Each trial places a victim task among background
// tenants on one machine, optionally adds a true antagonist, lets
// CPI² detect and hard-cap the top suspect, and compares the victim's
// CPI before and during throttling. Figures 14–16 are all views over
// the resulting trial records.

// trialConfig parameterizes one capping trial.
type trialConfig struct {
	seed int64
	// production selects the victim band: production victims have
	// uniform behaviour; non-production victims are noisy and
	// phase-shifting ("engineers testing experimental features"),
	// which is the paper's explanation for their worse detection
	// accuracy.
	production bool
	// withAntagonist places a true cache-hammering antagonist.
	withAntagonist bool
	// background is the number of quiet co-tenants (machine load).
	background int
	// backgroundCPU is each background tenant's demand.
	backgroundCPU float64
	// antagCPU and antagFootprint shape the antagonist: damage scales
	// with their product, so trials vary them inversely to decouple
	// interference from machine utilization (the paper finds the two
	// uncorrelated). Zero values take defaults.
	antagCPU       float64
	antagFootprint float64
	// secondAntagonist adds another interferer that ramps up later —
	// capping the first then brings little relief (a "noise" outcome)
	// or even a CPI rise (a false positive), both of which the paper's
	// trial population contains.
	secondAntagonist bool
}

// trialResult is one trial's record.
type trialResult struct {
	detected bool
	// correlation of the top suspect at the moment of capping.
	correlation float64
	// pickedAntagonist is true when the capped task was the planted
	// antagonist.
	pickedAntagonist bool
	// utilization of the machine when the incident fired.
	utilization float64
	// sigmasAbove is how far (in spec stddevs) the victim CPI sat
	// above the spec mean at detection.
	sigmasAbove float64
	// cpiBefore/cpiDuring are victim mean CPIs over the 5 minutes
	// before capping and the capped period.
	cpiBefore, cpiDuring float64
	// mpkiBefore/mpkiDuring are the victim's L3 misses/instruction in
	// the same windows.
	mpkiBefore, mpkiDuring float64
	// specMean/specStddev are the victim's installed spec.
	specMean, specStddev float64
	// relCPIObserved is mean victim CPI / spec mean over the whole
	// trial (used for the Figure 14 CDFs even when nothing fires).
	relCPIObserved float64
}

// relativeCPI returns cpiDuring/cpiBefore (the paper's measure of
// benefit; < 1 means throttling helped).
func (r trialResult) relativeCPI() float64 {
	if r.cpiBefore == 0 {
		return 1
	}
	return r.cpiDuring / r.cpiBefore
}

// truePositive: victim CPI fell by more than one spec stddev.
func (r trialResult) truePositive() bool {
	return r.detected && r.cpiBefore-r.cpiDuring > r.specStddev
}

// falsePositive: victim CPI rose by more than one spec stddev.
func (r trialResult) falsePositive() bool {
	return r.detected && r.cpiDuring-r.cpiBefore > r.specStddev
}

// degradation returns cpiBefore / specMean.
func (r trialResult) degradation() float64 {
	if r.specMean == 0 {
		return 1
	}
	return r.cpiBefore / r.specMean
}

// victimProfile builds the trial victim's profile per band.
func trialVictimProfile(production bool) *interference.Profile {
	if production {
		return &interference.Profile{
			DefaultCPI:     1.0,
			CacheFootprint: 1.5,
			MemBandwidth:   0.8,
			Sensitivity:    1.0,
			BaseL3MPKI:     2.0,
			NoiseSigma:     0.06,
		}
	}
	return &interference.Profile{
		DefaultCPI:        1.0,
		CacheFootprint:    1.5,
		MemBandwidth:      0.8,
		Sensitivity:       1.0,
		BaseL3MPKI:        2.0,
		NoiseSigma:        0.22,
		LowUsageInflation: 2.0,
		LowUsageThreshold: 0.6,
	}
}

// trialVictimWorkload builds the victim's demand per band.
func trialVictimWorkload(production bool) machine.Workload {
	if production {
		return &workload.Steady{CPU: 1.0, Threads: 16}
	}
	// Non-production: phase-shifting demand that self-inflicts CPI
	// swings via LowUsageInflation.
	return &workload.Bimodal{HighCPU: 1.0, LowCPU: 0.35, Period: 4 * time.Minute, Threads: 8}
}

var (
	trialVictimID = model.TaskID{Job: "victim", Index: 0}
	trialAntagID  = model.TaskID{Job: "antagonist", Index: 0}
)

// runTrial executes one capping trial and returns its record.
func runTrial(cfg trialConfig) trialResult {
	rng := stats.NewRNG(cfg.seed)
	hw := interference.DefaultMachine(model.PlatformA)
	m := machine.New("trial", hw, 24, rng.Stream("noise"))

	params := core.DefaultParams()
	a := agent.New(m, params, nil)

	victimBand := model.PriorityProduction
	if !cfg.production {
		victimBand = model.PriorityBatch
	}
	victimJob := model.Job{
		Name: "victim", Class: model.ClassLatencySensitive, Priority: victimBand,
		ProtectionEligible: true,
	}
	vprof := trialVictimProfile(cfg.production)
	if err := m.AddTask(trialVictimID, victimJob, vprof, trialVictimWorkload(cfg.production)); err != nil {
		panic(err)
	}
	a.RegisterTask(trialVictimID, victimJob)

	// Synthesize the fleet-learned spec: the victim job's population
	// statistics under normal conditions. Production jobs have tight
	// specs; non-production jobs' populations are less uniform.
	specSd := 0.08
	if !cfg.production {
		specSd = 0.16
	}
	spec := model.Spec{
		Job: "victim", Platform: hw.Platform,
		NumSamples: 100000, NumTasks: 500,
		CPIMean: vprof.DefaultCPI * 1.08, CPIStddev: specSd,
	}
	a.DeliverSpec(spec)

	// Background tenants: light-footprint services that raise machine
	// utilization without real cache pressure, each with slightly
	// different demand so correlations vary by chance.
	bgJob := model.Job{Name: "bg", Class: model.ClassBatch, Priority: model.PriorityBatch}
	bgProfile := &interference.Profile{
		DefaultCPI:     1.1,
		CacheFootprint: 0.02,
		MemBandwidth:   0.02,
		Sensitivity:    0.3,
		BaseL3MPKI:     1.0,
		NoiseSigma:     0.1,
	}
	bgRng := rng.Stream("bg")
	for i := 0; i < cfg.background; i++ {
		id := model.TaskID{Job: "bg", Index: i}
		cpu := cfg.backgroundCPU * (0.5 + bgRng.Float64())
		if err := m.AddTask(id, bgJob, bgProfile,
			&workload.Steady{CPU: cpu, Threads: 4 + bgRng.Intn(8)}); err != nil {
			panic(err)
		}
		a.RegisterTask(id, bgJob)
	}
	// A fixed handful of bursty tenants, independent of machine load:
	// their pulses sometimes align with the victim's bad minutes by
	// chance, making them plausible — but innocent — suspects whose
	// capping brings no relief. Every machine has a few of these.
	burstyJob := model.Job{Name: "bursty", Class: model.ClassBatch, Priority: model.PriorityBatch}
	for i := 0; i < 4; i++ {
		id := model.TaskID{Job: "bursty", Index: i}
		cpu := 0.3 + 0.3*bgRng.Float64()
		w := &workload.Pulse{
			OnCPU:   cpu * 2.5,
			OffCPU:  cpu * 0.2,
			OnFor:   time.Duration(60+bgRng.Intn(240)) * time.Second,
			OffFor:  time.Duration(60+bgRng.Intn(240)) * time.Second,
			Phase:   time.Duration(bgRng.Intn(600)) * time.Second,
			Threads: 6,
		}
		if err := m.AddTask(id, burstyJob, bgProfile, w); err != nil {
			panic(err)
		}
		a.RegisterTask(id, burstyJob)
	}

	antagJob := model.Job{Name: "antagonist", Class: model.ClassBatch, Priority: model.PriorityBatch}
	antagCPU := cfg.antagCPU
	if antagCPU <= 0 {
		antagCPU = 5
	}
	antagFootprint := cfg.antagFootprint
	if antagFootprint <= 0 {
		antagFootprint = 8
	}
	antagProfile := &interference.Profile{
		DefaultCPI:     1.5,
		CacheFootprint: antagFootprint,
		MemBandwidth:   antagFootprint * 0.7,
		Sensitivity:    0.15,
		BaseL3MPKI:     12,
		NoiseSigma:     0.05,
	}

	start := time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC)
	now := start
	tick := func() []core.Incident {
		m.Tick(now, time.Second)
		incs := a.Tick(now)
		now = now.Add(time.Second)
		return incs
	}

	// Per-minute victim counter snapshots for windowed CPI/MPKI math.
	var snaps []perfcnt.Counters
	snapshot := func() {
		c, _ := m.TaskCounters(trialVictimID)
		snaps = append(snaps, c)
	}
	snapshot()

	var res trialResult
	res.specMean = spec.CPIMean
	res.specStddev = spec.CPIStddev

	// Phase 1: 2 minutes of background-only warmup.
	for s := 0; s < 120; s++ {
		tick()
		if (s+1)%60 == 0 {
			snapshot()
		}
	}
	// Phase 2: the antagonist arrives (if configured).
	if cfg.withAntagonist {
		if err := m.AddTask(trialAntagID, antagJob, antagProfile,
			&workload.Steady{CPU: antagCPU, Threads: 16}); err != nil {
			panic(err)
		}
		a.RegisterTask(trialAntagID, antagJob)
	}
	// Phase 3: run up to 25 minutes until CPI² caps someone. A second
	// antagonist (if configured) ramps up 6 minutes in.
	var capMinute int
	detectedAt := -1
	var utilSum float64
	var utilN int
	secondID := model.TaskID{Job: "antagonist2", Index: 0}
	secondJob := model.Job{Name: "antagonist2", Class: model.ClassBatch, Priority: model.PriorityBatch}
	secondProfile := &interference.Profile{
		DefaultCPI:     1.3,
		CacheFootprint: 5,
		MemBandwidth:   3.5,
		Sensitivity:    0.15,
		BaseL3MPKI:     9,
		NoiseSigma:     0.05,
	}
	for s := 0; s < 25*60; s++ {
		if cfg.secondAntagonist && s == 6*60 {
			if err := m.AddTask(secondID, secondJob, secondProfile,
				&workload.Pulse{OnCPU: 4, OffCPU: 0.3, OnFor: 4 * time.Minute,
					OffFor: 3 * time.Minute, Phase: 5 * time.Minute, Threads: 12}); err != nil {
				panic(err)
			}
			a.RegisterTask(secondID, secondJob)
		}
		incs := tick()
		if detectedAt < 0 && s%10 == 0 {
			utilSum += m.Utilization()
			utilN++
		}
		if (s+121)%60 == 0 {
			snapshot()
		}
		if detectedAt < 0 {
			for _, inc := range incs {
				if inc.Victim != trialVictimID || inc.Decision.Action != core.ActionCap {
					continue
				}
				res.detected = true
				res.correlation = inc.Suspects[0].Correlation
				res.pickedAntagonist = inc.Decision.Target == trialAntagID
				// Machine load as the trial-average utilization, not the
				// instant of the report (which is biased toward burst
				// moments).
				res.utilization = utilSum / float64(utilN)
				// Assessment data: sigmas above mean at detection.
				if spec.CPIStddev > 0 {
					res.sigmasAbove = (inc.VictimCPI - spec.CPIMean) / spec.CPIStddev
				}
				detectedAt = len(snaps) - 1 // snapshot index ≈ now
				capMinute = s
				break
			}
		}
		// Run 5 more minutes after the cap, then stop.
		if detectedAt >= 0 && s >= capMinute+5*60 {
			break
		}
	}

	// Derive windowed CPI/MPKI values from snapshots.
	window := func(fromMin, toMin int) (cpi, mpki float64) {
		if fromMin < 0 {
			fromMin = 0
		}
		if toMin >= len(snaps) {
			toMin = len(snaps) - 1
		}
		if toMin <= fromMin {
			return 0, 0
		}
		d := snaps[toMin].Sub(snaps[fromMin])
		return d.CPI(), d.L3MPKI()
	}
	if res.detected {
		// "CPI when the antagonist was first reported": the couple of
		// minutes right before the cap, which the interference
		// dominates.
		res.cpiBefore, res.mpkiBefore = window(detectedAt-2, detectedAt)
		res.cpiDuring, res.mpkiDuring = window(detectedAt+1, detectedAt+5)
		if res.cpiDuring == 0 { // trial ended early; use what we have
			res.cpiDuring, res.mpkiDuring = window(detectedAt+1, len(snaps)-1)
		}
	}
	whole, _ := window(2, len(snaps)-1)
	if res.specMean > 0 && whole > 0 {
		res.relCPIObserved = whole / res.specMean
	} else {
		res.relCPIObserved = 1
	}
	return res
}

// runTrials executes n trials with the base config, varying the seed
// and the background size (machine load) per trial.
func runTrials(n int, base trialConfig, seed int64) []trialResult {
	rng := stats.NewRNG(seed)
	loadRng := rng.Stream("load")
	out := make([]trialResult, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.seed = seed*1000 + int64(i)
		// Spread machine load roughly uniformly across trials, like
		// Figure 14's x-axis, keeping total demand under capacity so
		// load varies freely.
		cfg.background = 2 + loadRng.Intn(26)
		// Total background demand is budgeted below machine capacity
		// minus the victim and the largest antagonist, so CPU never
		// saturates: on the paper's machines an antagonist's cache
		// damage does not depend on how busy the CPUs are.
		budget := 1 + 5.5*loadRng.Float64()
		cfg.backgroundCPU = budget / float64(cfg.background)
		// Antagonist shape: CPU and footprint vary inversely, so a
		// quiet-CPU/huge-footprint antagonist does as much damage as a
		// CPU-hungry moderate one. The cubic skew produces many weak
		// antagonists (some below detectability — severe interference
		// is rare, §2) and a long tail of brutal ones.
		cfg.antagCPU = 1.5 + 4.5*loadRng.Float64()
		u := loadRng.Float64()
		k := 0.6 + 13*u*u
		cfg.antagFootprint = k / cfg.antagCPU * 2.4
		cfg.secondAntagonist = cfg.withAntagonist && loadRng.Float64() < 0.5
		out = append(out, runTrial(cfg))
	}
	return out
}
