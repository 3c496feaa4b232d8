package experiments

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file replays the §6 case studies (Figures 8–13) on a single
// simulated machine. Each case builds the tenant mix the paper
// describes, lets CPI² run, and reports the victim-CPI /
// antagonist-usage trajectories and the suspect table.

func init() {
	register("fig8", fig8)
	register("fig9", fig9)
	register("fig10", fig10)
	register("fig11", fig11)
	register("fig12", fig12)
	register("fig13", fig13)
}

// caseRig is a single-machine scenario under agent control.
type caseRig struct {
	m   *machine.Machine
	a   *agent.Agent
	now time.Time
	inc []core.Incident

	// timeline capture for paper-style plots: per-minute victim CPI
	// and antagonist CPU usage (plus whether it was capped).
	plotVictim model.TaskID
	plotAntag  model.TaskID
	epoch      time.Time
	minutes    []caseMinute

	// threadsOf, when set, has its thread count captured every tick
	// from the machine's TaskTick (Figure 12b).
	threadsOf model.TaskID
	threads   []float64
}

type caseMinute struct {
	minute     int
	victimCPI  float64
	antagUsage float64
	capped     bool
}

func newCaseRig(seed int64, params core.Params) *caseRig {
	rng := stats.NewRNG(seed)
	m := machine.New("case-machine", interference.DefaultMachine(model.PlatformA), 24, rng.Stream("noise"))
	start := time.Date(2011, 5, 16, 2, 0, 0, 0, time.UTC)
	return &caseRig{
		m:     m,
		a:     agent.New(m, params, nil),
		now:   start,
		epoch: start,
	}
}

// plot selects the victim/antagonist pair to capture per minute.
func (r *caseRig) plot(victim, antag model.TaskID) {
	r.plotVictim, r.plotAntag = victim, antag
}

func (r *caseRig) add(id model.TaskID, job model.Job, p *interference.Profile, w machine.Workload) {
	if err := r.m.AddTask(id, job, p, w); err != nil {
		panic(err)
	}
	r.a.RegisterTask(id, job)
}

func (r *caseRig) run(d time.Duration) {
	for s := 0; s < int(d/time.Second); s++ {
		ticks, _ := r.m.Tick(r.now, time.Second)
		r.inc = append(r.inc, r.a.Tick(r.now)...)
		for _, tt := range ticks {
			if tt.ID == r.threadsOf {
				r.threads = append(r.threads, float64(tt.Threads))
			}
		}
		if r.plotVictim != (model.TaskID{}) && r.now.Sub(r.epoch)%time.Minute == 0 {
			cm := caseMinute{minute: int(r.now.Sub(r.epoch) / time.Minute)}
			for _, tt := range ticks {
				switch tt.ID {
				case r.plotVictim:
					cm.victimCPI = tt.CPI
				case r.plotAntag:
					cm.antagUsage = tt.Usage
					cm.capped = tt.Capped
				}
			}
			r.minutes = append(r.minutes, cm)
		}
		r.now = r.now.Add(time.Second)
	}
}

// timeline renders the captured minutes like the paper's paired
// victim-CPI / antagonist-usage plots (Figures 8b, 9, 11b, 13).
func (r *caseRig) timeline(maxRows int) string {
	if len(r.minutes) == 0 {
		return ""
	}
	step := 1
	if maxRows > 0 && len(r.minutes) > maxRows {
		step = len(r.minutes) / maxRows
	}
	out := "timeline (per minute):\n  min  victim-CPI  antagonist-CPU\n"
	for i := 0; i < len(r.minutes); i += step {
		cm := r.minutes[i]
		mark := ""
		if cm.capped {
			mark = "  [capped]"
		}
		out += fmt.Sprintf("  %3d  %10.2f  %14.2f%s\n", cm.minute, cm.victimCPI, cm.antagUsage, mark)
	}
	return out
}

// lsJob and batchJob are shorthand constructors.
func lsJob(name string) model.Job {
	return model.Job{Name: model.JobName(name), Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
}

func batchJob(name string, prio model.Priority) model.Job {
	return model.Job{Name: model.JobName(name), Class: model.ClassBatch, Priority: prio}
}

// quietTenants fills the machine with n light co-tenants.
func quietTenants(r *caseRig, n int, seed int64) {
	p := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 0.2, MemBandwidth: 0.1,
		Sensitivity: 0.3, BaseL3MPKI: 1, NoiseSigma: 0.08,
	}
	rng := stats.NewRNG(seed).Stream("tenants")
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tenant%02d", i)
		r.add(model.TaskID{Job: model.JobName(name), Index: 0}, lsJob(name), p,
			&workload.Steady{CPU: 0.1 + 0.3*rng.Float64(), Threads: 2 + rng.Intn(6)})
	}
}

// victimSpec installs the victim's fleet spec.
func victimSpec(r *caseRig, job string, mean, sd float64) {
	r.a.DeliverSpec(model.Spec{
		Job: model.JobName(job), Platform: r.m.Platform(),
		NumSamples: 100000, NumTasks: 300, CPIMean: mean, CPIStddev: sd,
	})
}

// suspectTable renders an incident's top suspects like the paper's
// case tables.
func suspectTable(inc core.Incident, k int) string {
	out := "top suspects:\n"
	for i, s := range inc.Suspects {
		if i >= k {
			break
		}
		out += fmt.Sprintf("  %-22s %-18s corr %.2f\n", s.Job, s.Class, s.Correlation)
	}
	return out
}

// fig8 / Case 1: a video-processing batch task on a 57-tenant machine
// drives a latency-sensitive victim's CPI from ≈2 to ≈5; CPI² ranks
// it top with correlation ≈0.46 and it is the only batch suspect.
func fig8(o Options) (*Report, error) {
	p := core.DefaultParams()
	p.ReportOnly = true // case 1 predates auto-enforcement
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "latency-service", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 2.0, CacheFootprint: 1.5, MemBandwidth: 0.8,
		Sensitivity: 0.55, BaseL3MPKI: 2.5, NoiseSigma: 0.06,
	}
	r.add(victim, lsJob("latency-service"), vprof, &workload.Steady{CPU: 1.2, Threads: 12})
	victimSpec(r, "latency-service", 2.0, 0.15)
	// 56 other tenants: 52 quiet + 4 moderately active LS services
	// that will show up as plausible (but innocent) suspects.
	quietTenants(r, 52, o.Seed)
	activeLS := []string{"content-digitizing", "image-front-end", "bigtable-tablet", "storage-server"}
	for i, name := range activeLS {
		pr := &interference.Profile{
			DefaultCPI: 1.2, CacheFootprint: 1.0, MemBandwidth: 0.6,
			Sensitivity: 0.5, BaseL3MPKI: 2, NoiseSigma: 0.1,
		}
		r.add(model.TaskID{Job: model.JobName(name), Index: i}, lsJob(name), pr,
			&workload.Steady{CPU: 0.8, Threads: 8})
	}
	// Healthy half hour, then the antagonist arrives at "2:00am".
	r.run(10 * time.Minute)
	antag := model.TaskID{Job: "video-processing", Index: 0}
	r.add(antag, batchJob("video-processing", model.PriorityBatch),
		&interference.Profile{
			DefaultCPI: 1.5, CacheFootprint: 6, MemBandwidth: 5,
			Sensitivity: 0.1, BaseL3MPKI: 14, NoiseSigma: 0.05,
		},
		// Bursty transcode spurts, like Figure 8(b)'s spiky usage.
		&workload.Pulse{OnCPU: 4.2, OffCPU: 0.2, OnFor: 2 * time.Minute,
			OffFor: 2 * time.Minute, Threads: 16})
	r.plot(victim, antag)
	r.run(30 * time.Minute)

	if len(r.inc) == 0 {
		return nil, fmt.Errorf("fig8: no incident raised")
	}
	inc := r.inc[len(r.inc)-1]
	rep := &Report{
		ID:    "fig8",
		Title: "Case 1: antagonist identification on a 57-tenant machine",
		PaperClaim: "victim CPI rose 2.0→5.0; top suspect video processing (corr 0.46), " +
			"the only batch job in the top 5",
	}
	rep.AddMetric("tenants", float64(r.m.NumTasks()), 57, "")
	rep.AddMetric("victim CPI at detection", inc.VictimCPI, 5.0, "")
	rep.AddMetric("top suspect corr", inc.Suspects[0].Correlation, 0.46, "")
	top5Batch := 0
	for i, s := range inc.Suspects {
		if i >= 5 {
			break
		}
		if s.Class == model.ClassBatch {
			top5Batch++
		}
	}
	rep.AddMetric("batch jobs in top 5", float64(top5Batch), 1, "")
	if inc.Suspects[0].Job != "video-processing" {
		rep.AddMetric("WARNING wrong top suspect", 1, 0, string(inc.Suspects[0].Job))
	}
	rep.Body = suspectTable(inc, 5) + r.timeline(20)
	return rep, nil
}

// fig9 / Case 2: hard-capping the antagonist halves the victim's CPI
// (≈2.0 → ≈1.0) and the CPI rises again when the cap lifts.
func fig9(o Options) (*Report, error) {
	p := core.DefaultParams()
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "latency-service", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 0.35, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	r.add(victim, lsJob("latency-service"), vprof, &workload.Steady{CPU: 1.2, Threads: 12})
	victimSpec(r, "latency-service", 1.0, 0.12)
	quietTenants(r, 41, o.Seed)
	antag := model.TaskID{Job: "best-effort-batch", Index: 0}
	r.add(antag, batchJob("best-effort-batch", model.PriorityBestEffort),
		&interference.Profile{
			DefaultCPI: 1.4, CacheFootprint: 6, MemBandwidth: 5,
			Sensitivity: 0.1, BaseL3MPKI: 10, NoiseSigma: 0.05,
		},
		&workload.Steady{CPU: 4.5, Threads: 20})
	r.plot(victim, antag)

	// Run until the cap fires, then observe during and after.
	var capAt time.Time
	for i := 0; i < 40 && capAt.IsZero(); i++ {
		r.run(time.Minute)
		for _, inc := range r.inc {
			if inc.Decision.Action == core.ActionCap {
				capAt = inc.Time
				break
			}
		}
	}
	if capAt.IsZero() {
		return nil, fmt.Errorf("fig9: no cap applied")
	}
	r.run(15 * time.Minute) // cap lasts 5; observe the rebound too

	cpiSeries := r.a.Manager().CPISeries(victim)
	mean := func(from, to time.Time) float64 {
		pts := cpiSeries.Window(from, to)
		var s float64
		for _, p := range pts {
			s += p.Value
		}
		if len(pts) == 0 {
			return 0
		}
		return s / float64(len(pts))
	}
	before := mean(capAt.Add(-5*time.Minute), capAt)
	during := mean(capAt.Add(time.Minute), capAt.Add(5*time.Minute))
	after := mean(capAt.Add(7*time.Minute), capAt.Add(15*time.Minute))

	rep := &Report{
		ID:    "fig9",
		Title: "Case 2: victim CPI during antagonist hard-capping",
		PaperClaim: "victim CPI improved from ≈2.0 to ≈1.0 while the antagonist was " +
			"capped, and rose again after the cap lifted",
	}
	rep.AddMetric("victim CPI before cap", before, 2.0, "")
	rep.AddMetric("victim CPI during cap", during, 1.0, "")
	rep.AddMetric("victim CPI after cap", after, 2.0, "rebound")
	rep.AddMetric("improvement ratio", during/before, 0.5, "")
	rep.AddMetric("best-effort quota", 0.01, 0.01, "cap applied")
	rep.Body = r.timeline(25)
	return rep, nil
}

// fig10 / Case 3: bimodal self-inflicted CPI; best correlation is tiny
// and no action is taken.
func fig10(o Options) (*Report, error) {
	p := core.DefaultParams()
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "front-end", Index: 0}
	r.add(victim, lsJob("front-end"), workload.CaseThreeProfile(), workload.NewBimodal())
	victimSpec(r, "front-end", 3.0, 0.4)
	quietTenants(r, 28, o.Seed)
	r.run(60 * time.Minute)

	// CPI range across phases.
	cpiSeries := r.a.Manager().CPISeries(victim)
	vals := cpiSeries.Values()
	maxCPI, minCPI := stats.Max(vals), stats.Min(vals)

	// The machine must not have capped anyone.
	caps := 0
	var bestCorr float64
	for _, inc := range r.inc {
		if inc.Decision.Action == core.ActionCap {
			caps++
		}
		if len(inc.Suspects) > 0 && inc.Suspects[0].Correlation > bestCorr {
			bestCorr = inc.Suspects[0].Correlation
		}
	}

	rep := &Report{
		ID:    "fig10",
		Title: "Case 3: self-inflicted bimodal CPI — no action",
		PaperClaim: "CPI fluctuated ≈3↔10 with bimodal CPU usage; best suspect " +
			"correlation only 0.07, so CPI² took no action; the min-CPU filter " +
			"suppresses this false alarm",
	}
	rep.AddMetric("max victim CPI", maxCPI, 10, "low-usage phases")
	rep.AddMetric("min victim CPI", minCPI, 3, "busy phases")
	rep.AddMetric("caps applied", float64(caps), 0, "")
	rep.AddMetric("incidents", float64(len(r.inc)), 0, "low-usage samples filtered")
	rep.AddMetric("best correlation seen", bestCorr, 0.07, "")
	return rep, nil
}

// fig11 / Case 4: nine suspects, only one throttleable; capping it
// yields only modest relief (shared victimhood).
func fig11(o Options) (*Report, error) {
	p := core.DefaultParams()
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "user-facing-service", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 0.9, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 0.75, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	r.add(victim, lsJob("user-facing-service"), vprof, &workload.Steady{CPU: 1.2, Threads: 12})
	victimSpec(r, "user-facing-service", 0.93, 0.06) // threshold ≈ 1.05

	// Eight active latency-sensitive tenants whose pulsing demand
	// both pressures the victim and correlates with its pain — they
	// are real co-antagonists, just ineligible for throttling. Plus
	// one batch scientific simulation carrying a minority of the
	// total pressure, which is why capping it brings only modest
	// relief.
	lsNames := []string{"a-production-service", "compilation", "security-service",
		"statistics", "data-query", "maps-service", "image-render", "ads-serving"}
	for i, name := range lsNames {
		pr := &interference.Profile{
			DefaultCPI: 1.1, CacheFootprint: 1.1, MemBandwidth: 0.5,
			Sensitivity: 0.4, BaseL3MPKI: 3, NoiseSigma: 0.08,
		}
		r.add(model.TaskID{Job: model.JobName(name), Index: i}, lsJob(name), pr,
			&workload.Pulse{OnCPU: 1.6, OffCPU: 0.4, OnFor: 3 * time.Minute,
				OffFor: 3 * time.Minute, Phase: time.Duration(i) * 45 * time.Second,
				Threads: 10})
	}
	sci := model.TaskID{Job: "scientific-simulation", Index: 0}
	r.add(sci, batchJob("scientific-simulation", model.PriorityBatch),
		&interference.Profile{
			DefaultCPI: 0.9, CacheFootprint: 2.2, MemBandwidth: 1.2,
			Sensitivity: 0.1, BaseL3MPKI: 8, NoiseSigma: 0.05,
		},
		&workload.Pulse{OnCPU: 3.2, OffCPU: 1.0, OnFor: 4 * time.Minute,
			OffFor: 3 * time.Minute, Threads: 12})

	var capAt time.Time
	for i := 0; i < 40 && capAt.IsZero(); i++ {
		r.run(time.Minute)
		for _, inc := range r.inc {
			if inc.Decision.Action == core.ActionCap {
				capAt = inc.Time
				break
			}
		}
	}
	if capAt.IsZero() {
		return nil, fmt.Errorf("fig11: no cap applied")
	}
	r.run(6 * time.Minute)

	cpiSeries := r.a.Manager().CPISeries(victim)
	mean := func(from, to time.Time) float64 {
		pts := cpiSeries.Window(from, to)
		var s float64
		for _, pt := range pts {
			s += pt.Value
		}
		if len(pts) == 0 {
			return 0
		}
		return s / float64(len(pts))
	}
	before := mean(capAt.Add(-5*time.Minute), capAt)
	during := mean(capAt.Add(time.Minute), capAt.Add(5*time.Minute))

	// Count suspect classes in the incident that triggered the cap.
	var inc core.Incident
	for _, i2 := range r.inc {
		if i2.Decision.Action == core.ActionCap {
			inc = i2
			break
		}
	}
	batchEligible := 0
	for _, s := range core.TopSuspects(inc.Suspects, 9, 0.35) {
		if s.Class == model.ClassBatch {
			batchEligible++
		}
	}
	rep := &Report{
		ID:    "fig11",
		Title: "Case 4: many ineligible suspects, modest relief",
		PaperClaim: "9 suspects, only the scientific simulation throttleable; " +
			"capping dropped victim CPI only 1.6→1.3 (0.81×) — right response " +
			"would be migration",
	}
	rep.AddMetric("suspects above threshold", float64(len(core.TopSuspects(inc.Suspects, 9, 0.35))), 9, "")
	rep.AddMetric("throttleable among them", float64(batchEligible), 1, "")
	rep.AddMetric("victim CPI before", before, 1.6, "")
	rep.AddMetric("victim CPI during", during, 1.3, "")
	rep.AddMetric("relative CPI", during/before, 0.81, "modest relief")
	rep.Body = suspectTable(inc, 9)
	if inc.Decision.Target != sci {
		rep.AddMetric("WARNING capped wrong task", 1, 0, inc.Decision.Target.String())
	}
	return rep, nil
}

// fig12 / Case 5: the lame-duck pattern — antagonist thread count goes
// 8 → ~80 under the cap → 2 afterwards → back to 8.
func fig12(o Options) (*Report, error) {
	// Case 5 predates wide enforcement: operators capped the suspect
	// manually, twice, based on CPI² reports. We do the same —
	// report-only detection plus two manual 5-minute caps.
	p := core.DefaultParams()
	p.ReportOnly = true
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "query-serving", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	r.add(victim, lsJob("query-serving"), vprof, &workload.Steady{CPU: 1.2, Threads: 12})
	victimSpec(r, "query-serving", 1.0, 0.12)
	quietTenants(r, 20, o.Seed)

	mr := workload.NewMapReduce(4.5, workload.ReactLameDuck)
	mr.LameDuckFor = 20 * time.Minute
	antag := model.TaskID{Job: "replayer-batch", Index: 0}
	r.add(antag, batchJob("replayer-batch", model.PriorityBatch),
		&interference.Profile{
			DefaultCPI: 1.4, CacheFootprint: 6, MemBandwidth: 5,
			Sensitivity: 0.1, BaseL3MPKI: 10, NoiseSigma: 0.05,
		}, mr)
	r.threadsOf = antag

	// Two operator capping rounds, then a long observation window.
	caps := 0
	for round := 0; round < 2; round++ {
		// Wait for a CPI² report naming the antagonist.
		var reported bool
		for i := 0; i < 30 && !reported; i++ {
			r.run(time.Minute)
			for _, inc := range r.inc {
				if len(inc.Suspects) > 0 && inc.Suspects[0].Task == antag &&
					inc.Suspects[0].Correlation >= 0.35 {
					reported = true
					break
				}
			}
		}
		if !reported {
			return nil, fmt.Errorf("fig12: round %d: antagonist never reported", round+1)
		}
		if err := r.m.Cap(antag, 0.01); err != nil {
			return nil, err
		}
		caps++
		r.run(5 * time.Minute)
		if err := r.m.Uncap(antag); err != nil {
			return nil, err
		}
		// Let the worker ride through its lame-duck period.
		r.run(25 * time.Minute)
	}
	r.run(10 * time.Minute)

	threads := r.threads
	maxThreads := stats.Max(threads)
	// Post-burst minimum (lame duck) and final value.
	minAfterBurst := maxThreads
	seenBurst := false
	for _, v := range threads {
		if v >= 70 {
			seenBurst = true
		}
		if seenBurst && v < minAfterBurst {
			minAfterBurst = v
		}
	}
	final := threads[len(threads)-1]

	rep := &Report{
		ID:    "fig12",
		Title: "Case 5: lame-duck mode under hard-capping",
		PaperClaim: "normally ≈8 threads; ≈80 while capped (offloading work); 2 in " +
			"lame-duck mode for tens of minutes after; then back to 8",
	}
	rep.AddMetric("caps applied", float64(caps), 2, "operator throttled twice")
	rep.AddMetric("normal threads", threads[0], 8, "")
	rep.AddMetric("burst threads", maxThreads, 80, "while capped")
	rep.AddMetric("lame-duck threads", minAfterBurst, 2, "after cap")
	rep.AddMetric("final threads", final, 8, "recovered")
	return rep, nil
}

// fig13 / Case 6: a MapReduce worker survives its first capping but
// exits during the second.
func fig13(o Options) (*Report, error) {
	p := core.DefaultParams()
	r := newCaseRig(o.Seed, p)

	victim := model.TaskID{Job: "latency-service", Index: 0}
	vprof := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.05,
	}
	r.add(victim, lsJob("latency-service"), vprof, &workload.Steady{CPU: 1.2, Threads: 12})
	victimSpec(r, "latency-service", 1.0, 0.12)
	quietTenants(r, 15, o.Seed)

	mr := workload.NewMapReduce(5.0, workload.ReactExit)
	antag := model.TaskID{Job: "mapreduce-worker", Index: 0}
	r.add(antag, batchJob("mapreduce-worker", model.PriorityBatch),
		&interference.Profile{
			DefaultCPI: 1.4, CacheFootprint: 6, MemBandwidth: 5,
			Sensitivity: 0.1, BaseL3MPKI: 10, NoiseSigma: 0.05,
		}, mr)
	r.plot(victim, antag)

	r.run(70 * time.Minute)

	caps := 0
	for _, inc := range r.inc {
		if inc.Decision.Action == core.ActionCap {
			caps++
		}
	}
	stillThere := r.m.Task(antag) != nil

	rep := &Report{
		ID:    "fig13",
		Title: "Case 6: MapReduce worker exits during second capping",
		PaperClaim: "the worker survived the first throttling but quit abruptly " +
			"during the second",
	}
	rep.AddMetric("capping episodes endured", float64(mr.CapEpisodes()), 2, "")
	rep.AddMetric("caps applied", float64(caps), 2, "")
	boolAsFloat := 0.0
	if !stillThere {
		boolAsFloat = 1
	}
	rep.AddMetric("worker exited", boolAsFloat, 1, "1 = exited")
	rep.Body = r.timeline(25)
	return rep, nil
}
