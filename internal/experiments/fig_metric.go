package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// interferenceMachineA returns the Platform A hardware model used by
// standalone (non-cluster) measurements.
func interferenceMachineA() interference.Machine {
	return interference.DefaultMachine(model.PlatformA)
}

// This file regenerates the metric-validation results: Figure 1
// (cluster shape), Figure 2 (TPS vs IPS), Figure 3 (latency vs CPI),
// Figure 4 (per-tier correlation), Figure 5 (diurnal CPI), Table 1
// (CPI specs) and Figure 7 (GEV fit).

func init() {
	register("fig1", fig1)
	register("fig2", fig2)
	register("fig3", fig3)
	register("fig4", fig4)
	register("fig5", fig5)
	register("tab1", tab1)
	register("fig7", fig7)
	register("tab2", tab2)
}

// fig1: CDFs of tasks and threads per machine in a packed cluster.
func fig1(o Options) (*Report, error) {
	machines := o.scaleInt(1000, 40)
	// A fleet mix: a couple of search jobs, services, and lots of batch.
	c, _, err := (&cluster.Scenario{
		Seed:  o.Seed,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 24, PlatformBFraction: 0.3},
		Workload: []cluster.WorkloadEntry{
			{Kind: "websearch", Name: "websearch", Leaves: machines * 2, Mixers: machines/3 + 1, Roots: machines/10 + 1},
			{Kind: "quiet_service", Name: "bigtable", Tasks: machines * 3, CPU: 0.5},
		},
	}).Start(cluster.Config{})
	if err != nil {
		return nil, err
	}
	// Real clusters churn: waves of finite batch jobs complete and
	// leave unevenly sized holes that later arrivals fill, which is
	// what spreads the tasks-per-machine CDF (Figure 1a).
	finiteBatch := func(name string, tasks int, cpu float64, txScale float64) cluster.JobDef {
		def := cluster.BatchJob(name, tasks, cpu, model.PriorityBestEffort)
		base := def.NewWorkload
		def.NewWorkload = func(id model.TaskID, rng *stats.RNG) machine.Workload {
			w := base(id, rng)
			b := w.(*workload.Batch)
			// Random finite size per task: some finish fast, some slow.
			b.TotalTx = txScale * (0.2 + 1.8*rng.Stream("size").Float64())
			return b
		}
		return def
	}
	if err := c.AddJob(finiteBatch("wave1", machines*8, 0.4, 2000)); err != nil {
		return nil, err
	}
	if err := c.AddJob(cluster.BatchJob("logproc", machines*6, 0.5, model.PriorityBatch)); err != nil {
		return nil, err
	}
	c.Run(2 * time.Minute) // let the small wave-1 tasks finish
	if err := c.AddJob(finiteBatch("wave2", machines*5, 0.8, 50000)); err != nil {
		return nil, err
	}
	if err := c.AddJob(cluster.BatchJob("bg-index", machines*4, 0.3, model.PriorityBestEffort)); err != nil {
		return nil, err
	}
	c.Run(2 * time.Minute) // settle thread counts

	var tasks, threads []float64
	for i := 0; ; i++ {
		m := c.Machine(fmt.Sprintf("machine-%04d", i))
		if m == nil {
			break
		}
		tasks = append(tasks, float64(m.NumTasks()))
		threads = append(threads, float64(m.ThreadCount()))
	}
	medTasks, _ := stats.Median(tasks)
	medThreads, _ := stats.Median(threads)
	maxThreads := stats.Max(threads)

	r := &Report{
		ID:    "fig1",
		Title: "tasks and threads per machine (CDF)",
		PaperClaim: "the vast majority of machines run multiple tasks; tens of tasks " +
			"and up to thousands of threads per machine",
	}
	r.AddMetric("median tasks/machine", medTasks, 0, "paper CDF median ≈ 10-20")
	r.AddMetric("median threads/machine", medThreads, 0, "paper CDF up to ~10000")
	r.AddMetric("max threads/machine", maxThreads, 0, "")
	r.Body = renderCDF("tasks per machine", tasks, 10) + renderCDF("threads per machine", threads, 10)
	return r, nil
}

// fig2: a batch job's TPS tracks its IPS (r = 0.97).
func fig2(o Options) (*Report, error) {
	nTasks := o.scaleInt(2600, 20)
	machines := nTasks/6 + 1
	c, _, err := (&cluster.Scenario{
		Seed: o.Seed, ReportOnly: true, // measurement only
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 16},
		Workload: []cluster.WorkloadEntry{
			{Kind: "batch", Name: "batchjob", Tasks: nTasks, CPU: 2.0, Priority: "batch"},
			// A varying antagonist population makes CPI move: phases of
			// heavy co-runners arriving and leaving.
			{Kind: "antagonist", Name: "churn", Tasks: machines, CPU: 4, Priority: "best_effort"},
		},
	}).Start(cluster.Config{})
	if err != nil {
		return nil, err
	}
	// Toggle the antagonists on/off every 15 minutes via capping the
	// whole job (mechanism, not policy — this is workload generation).
	toggle := func(onoff bool) {
		for i := 0; i < machines; i++ {
			id := model.TaskID{Job: "churn", Index: i}
			if m, ok := c.MachineOf(id); ok {
				if onoff {
					_ = m.Uncap(id)
				} else {
					_ = m.Cap(id, 0.05)
				}
			}
		}
	}
	// Run 2 simulated hours, reading the job's cumulative transactions
	// and instructions at every 10-minute edge like the paper: a window's
	// TPS and IPS are the differences across it.
	jobTotals := func() (tx, instr float64) {
		for i := 0; i < nTasks; i++ {
			id := model.TaskID{Job: "batchjob", Index: i}
			if m, ok := c.MachineOf(id); ok {
				b := m.Task(id).Workload.(*workload.Batch)
				tx += b.Completed()
				instr += b.Instructions()
			}
		}
		return tx, instr
	}
	total := 2 * time.Hour
	phase := 15 * time.Minute
	window := 10 * time.Minute
	step := 5 * time.Minute // divides both the phase and the window
	var tps, ips []float64
	lastTx, lastInstr := jobTotals()
	for elapsed := time.Duration(0); elapsed < total; elapsed += step {
		if elapsed%phase == 0 {
			toggle((elapsed/phase)%2 == 0)
		}
		c.Run(step)
		if (elapsed+step)%window == 0 {
			tx, instr := jobTotals()
			tps = append(tps, (tx-lastTx)/window.Seconds())
			ips = append(ips, (instr-lastInstr)/window.Seconds())
			lastTx, lastInstr = tx, instr
		}
	}
	r0, err := stats.PearsonCorrelation(tps, ips)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "fig2",
		Title:      "batch job TPS vs IPS",
		PaperClaim: "transaction rate and instruction rate track one another; r = 0.97",
	}
	rep.AddMetric("TPS/IPS correlation", r0, 0.97, "")
	rep.AddMetric("windows", float64(len(tps)), 0, "10-minute windows")
	rep.Body = renderSeries("TPS vs IPS per window", "TPS", "IPS", tps, ips, 12)
	return rep, nil
}

// fig3: web-search leaf latency tracks CPI over a diurnal day
// (r = 0.97).
func fig3(o Options) (*Report, error) {
	leaves := o.scaleInt(200, 12)
	machines := leaves/3 + 2
	c, _, err := (&cluster.Scenario{
		Seed: o.Seed, ReportOnly: true,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 16},
		Workload: []cluster.WorkloadEntry{
			{Kind: "websearch", Name: "websearch", Leaves: leaves, Mixers: leaves/8 + 1, Roots: 1},
			// Interference that waxes and wanes with a different period
			// than the diurnal load, so CPI moves for microarchitectural
			// reasons.
			{Kind: "antagonist", Name: "churn", Tasks: machines, CPU: 3, Priority: "best_effort"},
		},
	}).Start(cluster.Config{})
	if err != nil {
		return nil, err
	}
	// 24 simulated hours; each leaf's hourly mean latency and CPI are
	// differences of its cumulative totals across the hour.
	hours := 24
	var lat, cpi []float64
	marks := make([]searchMark, leaves)
	for h := 0; h < hours; h++ {
		// Toggle churn by hour.
		for i := 0; i < machines; i++ {
			id := model.TaskID{Job: "churn", Index: i}
			if m, ok := c.MachineOf(id); ok {
				if h%2 == 0 {
					_ = m.Uncap(id)
				} else {
					_ = m.Cap(id, 0.05)
				}
			}
		}
		for i := range marks {
			marks[i] = markSearchTask(c, model.TaskID{Job: "websearch-leaf", Index: i})
		}
		c.Run(time.Hour)
		// Job-level hourly means.
		var latSum, cpiSum float64
		var n int
		for i, from := range marks {
			l, cp, ok := markSearchTask(c, model.TaskID{Job: "websearch-leaf", Index: i}).since(from)
			if !ok {
				continue
			}
			latSum += l
			cpiSum += cp
			n++
		}
		if n > 0 {
			lat = append(lat, latSum/float64(n))
			cpi = append(cpi, cpiSum/float64(n))
		}
	}
	r0, err := stats.PearsonCorrelation(lat, cpi)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:         "fig3",
		Title:      "web-search leaf: request latency vs CPI",
		PaperClaim: "latency and CPI rise and fall together over 24h; r = 0.97",
	}
	rep.AddMetric("latency/CPI correlation", r0, 0.97, "hourly job means")
	rep.Body = renderSeries("hourly means", "latency(ms)", "CPI", lat, cpi, 24)
	return rep, nil
}

// fig4: per-task latency-vs-CPI correlation by tier, on two platforms.
func fig4(o Options) (*Report, error) {
	leaves := o.scaleInt(120, 18)
	inter := leaves/4 + 2
	roots := 3
	machines := leaves/3 + 4
	c, _, err := (&cluster.Scenario{
		Seed: o.Seed, ReportOnly: true,
		Fleet: cluster.Fleet{Machines: machines, CPUsPerMachine: 16, PlatformBFraction: 0.5},
		Workload: []cluster.WorkloadEntry{
			{Kind: "websearch", Name: "websearch", Leaves: leaves, Mixers: inter, Roots: roots},
			{Kind: "antagonist", Name: "churn", Tasks: machines, CPU: 3, Priority: "best_effort"},
		},
	}).Start(cluster.Config{})
	if err != nil {
		return nil, err
	}
	// 16 interference phases of 10 minutes; at each phase end, record
	// one (mean latency, mean CPI) point per task over the phase's last
	// 5 minutes — the paper's "5-minute sample of a task's execution" —
	// then correlate per task across phases.
	var tasks []model.TaskID
	addTier := func(job string, count int) {
		for i := 0; i < count; i++ {
			tasks = append(tasks, model.TaskID{Job: model.JobName(job), Index: i})
		}
	}
	addTier("websearch-leaf", leaves)
	addTier("websearch-mixer", inter)
	addTier("websearch-root", roots)
	type pair struct{ lat, cpi []float64 }
	points := make([]pair, len(tasks))
	marks := make([]searchMark, len(tasks))
	for seg := 0; seg < 16; seg++ {
		for i := 0; i < machines; i++ {
			id := model.TaskID{Job: "churn", Index: i}
			if m, ok := c.MachineOf(id); ok {
				// Interference phases are per-machine and mutually
				// decorrelated: a root's own-machine conditions say
				// nothing about the leaf machines it waits on, which
				// is exactly why its latency↔CPI correlation is poor.
				switch (i*2654435761 + seg*40503) % 4 {
				case 0:
					_ = m.Uncap(id)
				case 1:
					_ = m.Cap(id, 1.0)
				case 2:
					_ = m.Cap(id, 0.05)
				default:
					_ = m.Cap(id, 2.0)
				}
			}
		}
		c.Run(5 * time.Minute)
		for i, id := range tasks {
			marks[i] = markSearchTask(c, id)
		}
		c.Run(5 * time.Minute)
		for i, id := range tasks {
			if l, cp, ok := markSearchTask(c, id).since(marks[i]); ok {
				points[i].lat = append(points[i].lat, l)
				points[i].cpi = append(points[i].cpi, cp)
			}
		}
	}
	tierCorr := func(job string) float64 {
		var all []float64
		for i, pp := range points {
			if string(tasks[i].Job) != job || len(pp.lat) < 8 {
				continue
			}
			r0, err := stats.PearsonCorrelation(pp.lat, pp.cpi)
			if err == nil {
				all = append(all, r0)
			}
		}
		return stats.Mean(all)
	}
	leafR := tierCorr("websearch-leaf")
	interR := tierCorr("websearch-mixer")
	rootR := tierCorr("websearch-root")

	rep := &Report{
		ID:    "fig4",
		Title: "latency vs CPI correlation by search tier",
		PaperClaim: "leaf and intermediate nodes correlate (0.75, 0.68); the root " +
			"correlates poorly because its latency is set by other nodes",
	}
	rep.AddMetric("leaf correlation", leafR, 0.75, "per-task mean")
	rep.AddMetric("intermediate correlation", interR, 0.68, "per-task mean")
	rep.AddMetric("root correlation", rootR, 0, "paper: poor")
	return rep, nil
}

// searchMark is one search task's cumulative totals at an interval
// edge: reported latency and the machine's cycle and instruction
// counters. Two marks of the same task give the interval's means.
type searchMark struct {
	latMS         float64
	ticks         int
	cycles, instr float64
	ok            bool
}

// markSearchTask reads a search task's totals now; the mark is not ok
// if the task is not placed.
func markSearchTask(c *cluster.Cluster, id model.TaskID) searchMark {
	m, ok := c.MachineOf(id)
	if !ok {
		return searchMark{}
	}
	cnt, ok := m.TaskCounters(id)
	if !ok {
		return searchMark{}
	}
	lat, ticks := m.Task(id).Workload.(*workload.SearchTask).LatencyTotals()
	return searchMark{latMS: lat, ticks: ticks, cycles: cnt.Cycles, instr: cnt.Instructions, ok: true}
}

// since returns the mean latency (ms) and the CPI (Δcycles /
// Δinstructions) between an earlier mark and this one; ok is false if
// either mark is missing or the task did not run in between.
func (to searchMark) since(from searchMark) (lat, cpi float64, ok bool) {
	if !from.ok || !to.ok || to.ticks <= from.ticks || to.instr <= from.instr {
		return 0, 0, false
	}
	return (to.latMS - from.latMS) / float64(to.ticks-from.ticks),
		(to.cycles - from.cycles) / (to.instr - from.instr), true
}

// fig5: diurnal mean CPI of the leaf fleet over 5 days, CV ≈ 4%.
func fig5(o Options) (*Report, error) {
	leaves := o.scaleInt(500, 12)
	// One leaf per machine: the paper's leaves share machines with
	// other jobs, not with each other, so their diurnal CPI swing is
	// instruction-mix drift, not self-interference.
	machines := leaves + 2
	c, _, err := (&cluster.Scenario{
		Seed: o.Seed, ReportOnly: true,
		Tick:     5 * time.Second, // 5 days of sim: coarser ticks
		Fleet:    cluster.Fleet{Machines: machines, CPUsPerMachine: 16},
		Workload: []cluster.WorkloadEntry{{Kind: "websearch", Name: "websearch", Leaves: leaves, Mixers: leaves/8 + 1, Roots: 1}},
	}).Start(cluster.Config{})
	if err != nil {
		return nil, err
	}

	days := 5
	var hourly []float64
	for h := 0; h < days*24; h++ {
		c.Run(time.Hour)
		var sum float64
		var n int
		for i := 0; i < leaves; i++ {
			id := model.TaskID{Job: "websearch-leaf", Index: i}
			m, ok := c.MachineOf(id)
			if !ok {
				continue
			}
			s := c.Agent(m.Name()).Manager().CPISeries(id)
			if s == nil {
				continue
			}
			vals := s.Window(c.Now().Add(-time.Hour), c.Now())
			for _, p := range vals {
				sum += p.Value
				n++
			}
		}
		if n > 0 {
			hourly = append(hourly, sum/float64(n))
		}
	}
	cv := stats.CoefficientOfVariation(hourly)
	// Peak-to-trough of the daily cycle.
	maxV, minV := stats.Max(hourly), stats.Min(hourly)

	rep := &Report{
		ID:         "fig5",
		Title:      "mean web-search leaf CPI over 5 days",
		PaperClaim: "diurnal pattern with ≈4% coefficient of variation",
	}
	rep.AddMetric("coefficient of variation", cv, 0.04, "")
	rep.AddMetric("peak/trough ratio", maxV/minV, 0, "diurnal swing")
	rep.Body = renderCDF("hourly mean CPI", hourly, 8)
	return rep, nil
}

// tab1: CPI specs of three representative latency-sensitive jobs.
func tab1(o Options) (*Report, error) {
	// Population sizes from the paper's Table 1, scaled.
	// Base CPIs are the paper targets deflated by the ≈3% mean
	// co-runner pressure of this quiet fleet; the per-job spread comes
	// from cross-task skew (tasks process different data), which is
	// what Table 1's stddev measures.
	rows := []struct {
		name    string
		base    float64
		skew    float64
		tasks   int
		paperMu float64
		paperSd float64
	}{
		{"jobA", 0.855, 0.10, o.scaleInt(312, 8), 0.88, 0.09},
		{"jobB", 1.32, 0.19, o.scaleInt(1040, 8), 1.36, 0.26},
		{"jobC", 1.97, 0.095, o.scaleInt(1250, 8), 2.03, 0.20},
	}
	totalTasks := 0
	for _, r0 := range rows {
		totalTasks += r0.tasks
	}
	machines := totalTasks/10 + 2
	c := cluster.New(cluster.Config{
		Seed: o.Seed, Machines: machines, CPUsPerMachine: 16,
		Params: core.Params{ReportOnly: true, MinSamplesPerTask: 10},
	})
	for _, r0 := range rows {
		def := cluster.QuietServiceJob(r0.name, r0.tasks, 0.6)
		def.Profile.BaseCPI = nil
		def.Profile.DefaultCPI = r0.base
		def.Profile.NoiseSigma = 0.08
		def.Profile.TaskSkewSigma = r0.skew
		def.Profile.CacheFootprint = 0.3
		def.Profile.MemBandwidth = 0.15
		def.Profile.Sensitivity = 0.2
		if err := c.AddJob(def); err != nil {
			return nil, err
		}
	}
	c.Run(15 * time.Minute)
	specs := c.RecomputeSpecs()
	rep := &Report{
		ID:         "tab1",
		Title:      "CPI specs of representative latency-sensitive jobs",
		PaperClaim: "job A 0.88±0.09 (312 tasks), job B 1.36±0.26 (1040), job C 2.03±0.20 (1250)",
	}
	for _, r0 := range rows {
		for _, s := range specs {
			if string(s.Job) == r0.name {
				rep.AddMetric(r0.name+" mean", s.CPIMean, r0.paperMu, fmt.Sprintf("%d tasks", s.NumTasks))
				rep.AddMetric(r0.name+" stddev", s.CPIStddev, r0.paperSd, "")
			}
		}
	}
	return rep, nil
}

// fig7: the measured CPI distribution of a web-search job is
// right-skewed and best fit by a GEV.
func fig7(o Options) (*Report, error) {
	samples := o.scaleInt(450000, 20000)
	// Measure CPI through the full generative path the fleet uses —
	// base CPI × co-runner pressure × diurnal drift × measurement
	// noise — across two days of varying conditions, then fit all four
	// candidate families, exactly as the paper did with its 450k
	// samples.
	rng := stats.NewRNG(o.Seed)
	src := rng.Stream("fig7")
	hw := interferenceMachineA()
	leaf := cluster.LeafProfile()
	antag := cluster.VideoProcessingProfile()
	xs := make([]float64, samples)
	start := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	for i := range xs {
		// Sample times sweep two days; co-runner pressure varies
		// mildly from sample to sample (different machines).
		ts := start.Add(time.Duration(i%(2*86400)) * time.Second)
		co := 0.4 * src.Float64() // light, fluctuating co-runner usage
		loads := []interference.Load{
			{Profile: leaf, Usage: 1.2},
			{Profile: antag, Usage: co},
		}
		xs[i] = hw.Evaluate(loads, 0, ts, src).CPI
	}
	mean, sd := stats.MeanStdDev(xs)
	fits, err := stats.FitAll(xs)
	if err != nil {
		return nil, err
	}
	best := fits[0]
	rep := &Report{
		ID:    "fig7",
		Title: "CPI distribution of a web-search job, with model fits",
		PaperClaim: "µ=1.8, σ=0.16; right-skewed; best fit GEV(1.73, 0.133, -0.0534) " +
			"beats normal, log-normal and gamma",
	}
	rep.AddMetric("mean CPI", mean, 1.8, "")
	rep.AddMetric("stddev", sd, 0.16, "")
	if g, ok := best.Dist.(stats.GEV); ok {
		rep.AddMetric("GEV µ", g.Mu, 1.73, "")
		rep.AddMetric("GEV σ", g.Sigma, 0.133, "")
		rep.AddMetric("GEV ξ", g.Xi, -0.0534, "")
	}
	body := "model ranking (smaller is better; AD weights the tails):\n"
	for _, f := range fits {
		body += fmt.Sprintf("  %-10s KS=%.5f  AD=%.1f\n", f.Dist.Name(), f.KS, f.AD)
	}
	h := stats.NewHistogram(1.2, 2.6, 28)
	h.AddAll(xs)
	body += h.Render(44, best.Dist)
	rep.Body = body
	if best.Dist.Name() != "gev" {
		rep.AddMetric("WARNING best fit not GEV", 1, 0, best.Dist.Name())
	}
	return rep, nil
}

// tab2: the library defaults are Table 2's values.
func tab2(Options) (*Report, error) {
	p := core.DefaultParams()
	rep := &Report{
		ID:         "tab2",
		Title:      "CPI² parameters and default values",
		PaperClaim: "Table 2 defaults",
	}
	rep.AddMetric("sampling duration (s)", p.SamplingDuration.Seconds(), 10, "")
	rep.AddMetric("sampling interval (s)", p.SamplingInterval.Seconds(), 60, "")
	rep.AddMetric("spec recompute (h)", p.SpecRecomputeInterval.Hours(), 24, "goal: 1h")
	rep.AddMetric("min CPU usage", p.MinCPUUsage, 0.25, "CPU-sec/sec")
	rep.AddMetric("outlier sigma", p.OutlierSigma, 2, "")
	rep.AddMetric("violations required", float64(p.ViolationsRequired), 3, "in 5 minutes")
	rep.AddMetric("violation window (min)", p.ViolationWindow.Minutes(), 5, "")
	rep.AddMetric("correlation threshold", p.CorrelationThreshold, 0.35, "")
	rep.AddMetric("hard-cap quota", p.BatchQuota, 0.1, "CPU-sec/sec")
	rep.AddMetric("best-effort quota", p.BestEffortQuota, 0.01, "CPU-sec/sec")
	rep.AddMetric("cap duration (min)", p.CapDuration.Minutes(), 5, "")
	return rep, nil
}
