package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// simConfig sizes one cluster-simulator workload. The committed sizes
// are frozen: changing one starts a new baseline.
type simConfig struct {
	name string
	// machines is the fleet size (16 CPUs each, 30 % platform B).
	machines int
	// warmMinutes of simulated time run before the forced spec
	// recompute; both are part of set-up.
	warmMinutes int
	// checkpointMinutes is the fixed amount of measured work after
	// which the digest, the live heap and the simulated-time outcomes
	// are taken. The run then keeps stepping whole minutes until its
	// time is up, so timings rest on more samples while everything that
	// must repeat exactly rests on the same work every time.
	checkpointMinutes int
	// antagonist selects the sim_antagonist shape: quiet services and
	// batch warm up, then heavy antagonists land, with observability on.
	antagonist bool
}

var (
	simFleetConfig      = simConfig{name: "sim_fleet", machines: 1000, warmMinutes: 6, checkpointMinutes: 20}
	simAntagonistConfig = simConfig{name: "sim_antagonist", machines: 1000, warmMinutes: 6, checkpointMinutes: 12, antagonist: true}
)

// antagonistJob is the job every cap must land on in sim_antagonist; a
// cap on anything else is a false cap.
const antagonistJob = "video"

// minSamplesPerTask lets a spec turn robust after the short warm-up
// (one sample per task per simulated minute); the paper's 100 would need
// 100 simulated minutes of set-up per run.
const minSamplesPerTask = 5

// obsSwitches turns the cluster's observability hooks on one by one,
// which is how the obs.* layer metrics isolate each hook's cost.
type obsSwitches struct{ registry, events, trace, faults bool }

var (
	obsAllOff = obsSwitches{}
	obsAllOn  = obsSwitches{registry: true, events: true, trace: true, faults: true}
)

// switches returns the observability setting the workload itself runs
// with: everything off for sim_fleet, everything on for sim_antagonist.
func (cfg simConfig) switches() obsSwitches {
	if cfg.antagonist {
		return obsAllOn
	}
	return obsAllOff
}

// fleet is a built cluster plus what the benchmark needs to drive and
// check it.
type fleet struct {
	cfg  simConfig
	c    *cluster.Cluster
	tree *workload.SearchTree
	// jobs lets the traced layer loop register every placed task with
	// its own agents.
	jobs map[model.JobName]model.Job
	// newDur and placeDur time cluster.New and the AddJob calls;
	// placed counts the tasks those calls placed.
	newDur, placeDur time.Duration
	placed           int
	// placedAt is the simulated time the antagonists landed.
	placedAt   time.Time
	antagonist int
}

// build constructs the fleet and places the workload's warm-up jobs.
func (cfg simConfig) build(seed int64, workers int, sw obsSwitches) (*fleet, error) {
	cc := cluster.Config{
		Seed:              seed,
		Machines:          cfg.machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		Params:            core.Params{MinSamplesPerTask: minSamplesPerTask},
		TraceCapacity:     -1,
	}
	if sw.registry {
		cc.Registry = obs.NewRegistry()
	}
	if sw.events {
		cc.Events = obs.NewEventLog(4096, nil)
	}
	if sw.trace {
		cc.TraceCapacity = 0
	}
	if sw.faults {
		cc.Faults = &cluster.FaultPlan{}
	}
	f := &fleet{cfg: cfg, jobs: make(map[model.JobName]model.Job)}
	t0 := time.Now()
	f.c = cluster.New(cc)
	f.newDur = time.Since(t0)

	var defs []cluster.JobDef
	n := cfg.machines
	if cfg.antagonist {
		defs = append(defs,
			cluster.QuietServiceJob("bigtable", 2*n, 0.8),
			cluster.BatchJob("logproc", n/2, 0.5, model.PriorityBestEffort))
	} else {
		search, tree := cluster.WebSearchJob("websearch", n, n/5+1, 2, f.c.RNG())
		f.tree = tree
		f.c.OnTick(func(time.Time) { tree.EndTick() })
		defs = append(defs, search...)
		defs = append(defs,
			cluster.QuietServiceJob("bigtable", n, 0.8),
			cluster.BatchJob("logproc", n, 0.5, model.PriorityBestEffort))
	}
	if err := f.addJobs(defs); err != nil {
		f.c.Close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) addJobs(defs []cluster.JobDef) error {
	t0 := time.Now()
	for _, d := range defs {
		if err := f.c.AddJob(d); err != nil {
			return err
		}
		f.jobs[d.Job.Name] = d.Job
		f.placed += d.Job.NumTasks
	}
	f.placeDur += time.Since(t0)
	return nil
}

// landAntagonists places the antagonist job (sim_antagonist only) at
// the current simulated time.
func (f *fleet) landAntagonists(now time.Time) error {
	if !f.cfg.antagonist {
		return nil
	}
	f.antagonist = f.cfg.machines * 2 / 5
	f.placedAt = now
	return f.addJobs([]cluster.JobDef{
		cluster.AntagonistJob(antagonistJob, f.antagonist, 7, model.PriorityBatch),
	})
}

// setUp is the whole timed set-up of a sim workload: build, placement,
// warm-up, forced spec recompute, and (sim_antagonist) the antagonists
// landing. It returns the fleet and the SHA-256 of the warmed-up spec
// table, which must not depend on the worker count.
func (cfg simConfig) setUp(seed int64, workers int, sw obsSwitches) (*fleet, string, error) {
	f, err := cfg.build(seed, workers, sw)
	if err != nil {
		return nil, "", err
	}
	for i := 0; i < cfg.warmMinutes*60; i++ {
		f.c.Step()
	}
	specs := f.c.RecomputeSpecs()
	if len(specs) == 0 {
		f.c.Close()
		return nil, "", fmt.Errorf("%s: warm-up of %d simulated minutes produced no robust spec", cfg.name, cfg.warmMinutes)
	}
	if err := f.landAntagonists(f.c.Now()); err != nil {
		f.c.Close()
		return nil, "", err
	}
	return f, hashJSON(f.c.AllSpecs()), nil
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// simWindow is what stepping a fleet through its measured window
// yields.
type simWindow struct {
	stepMs       []float64   // every Step
	sampleStepMs []float64   // the Steps on which samples were folded
	minutes      []window    // one per 60-step simulated minute
	allocs       memCounters // allocation counters over the timed steps
	// At the checkpoint (heap0MB at the start of the window):
	heap0MB, heapMB float64
	rssMB           float64 // resident-set high-water mark so far
	rssErr          error
	digest          simDigest
}

// simDigest is what a sim run must reproduce exactly for a given seed,
// at any worker count.
type simDigest struct {
	steps, samples, dropped int64
	incidents, caps         int
	falseCaps               int
	placed, capped          int
	timeToCapMeanS          float64
	specsHash, incidentHash string
}

func (d simDigest) put(o *outcome) {
	o.setDigest("steps", strconv.FormatInt(d.steps, 10))
	o.setDigest("samples_folded", strconv.FormatInt(d.samples, 10))
	o.setDigest("samples_dropped", strconv.FormatInt(d.dropped, 10))
	o.setDigest("incidents", strconv.Itoa(d.incidents))
	o.setDigest("caps", strconv.Itoa(d.caps))
	o.setDigest("false_caps", strconv.Itoa(d.falseCaps))
	o.setDigest("antagonists_placed", strconv.Itoa(d.placed))
	o.setDigest("antagonists_capped", strconv.Itoa(d.capped))
	o.setDigest("time_to_cap_mean_sim_s", strconv.FormatFloat(d.timeToCapMeanS, 'g', -1, 64))
	o.setDigest("specs_sha256", d.specsHash)
	o.setDigest("incidents_sha256", d.incidentHash)
}

// takeDigest summarizes the measured window so far. baseIncidents and
// recv0/drop0 are the counts at the start of the window: warm-up
// incidents belong to an unwarmed fleet and are not judged.
func (f *fleet) takeDigest(steps int64, baseIncidents int, recv0, drop0 int64) simDigest {
	recv, drop := f.c.PipelineStats()
	incs := f.c.Incidents()[baseIncidents:]
	d := simDigest{
		steps:        steps,
		samples:      recv - recv0,
		dropped:      drop - drop0,
		incidents:    len(incs),
		placed:       f.antagonist,
		specsHash:    hashJSON(f.c.AllSpecs()),
		incidentHash: hashJSON(core.IncidentRecords(incs)),
	}
	firstCap := make(map[model.TaskID]time.Time)
	for _, inc := range incs {
		for _, dec := range append([]core.Decision{inc.Decision}, inc.GroupDecisions...) {
			if dec.Action != core.ActionCap {
				continue
			}
			d.caps++
			if dec.Target.Job != antagonistJob {
				d.falseCaps++
				continue
			}
			if _, seen := firstCap[dec.Target]; !seen {
				firstCap[dec.Target] = inc.Time
			}
		}
	}
	d.capped = len(firstCap)
	// Sum in task order: float addition is not associative and map
	// order is random, but the mean must repeat bit for bit.
	ids := make([]model.TaskID, 0, len(firstCap))
	for id := range firstCap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Index < ids[j].Index })
	var sum float64
	for _, id := range ids {
		sum += firstCap[id].Sub(f.placedAt).Seconds()
	}
	if d.capped > 0 {
		d.timeToCapMeanS = sum / float64(d.capped)
	}
	return d
}

// measure steps the fleet through whole simulated minutes: at least
// cfg.checkpointMinutes, then on until budget has elapsed. Each minute
// is one window; the checkpoint's forced collection and digest fall
// between windows.
func (f *fleet) measure(budget time.Duration) *simWindow {
	w := &simWindow{}
	baseIncidents := len(f.c.Incidents())
	recv0, drop0 := f.c.PipelineStats()
	w.heap0MB = liveHeapMB()
	began := time.Now()
	recv := recv0
	for minute := 0; minute < f.cfg.checkpointMinutes || time.Since(began) < budget; minute++ {
		mem0 := readMemCounters()
		before := recv
		meter := startWindow()
		for s := 0; s < 60; s++ {
			t0 := time.Now()
			f.c.Step()
			ms := ms64(time.Since(t0))
			w.stepMs = append(w.stepMs, ms)
			if r, _ := f.c.PipelineStats(); r != recv {
				recv = r
				w.sampleStepMs = append(w.sampleStepMs, ms)
			}
		}
		w.minutes = append(w.minutes, meter.stop(recv-before))
		w.allocs.add(readMemCounters().since(mem0))
		if minute+1 == f.cfg.checkpointMinutes {
			w.rssMB, w.rssErr = peakRSSMB()
			w.digest = f.takeDigest(int64(len(w.stepMs)), baseIncidents, recv0, drop0)
			w.heapMB = liveHeapMB()
		}
	}
	return w
}

// judge turns a window's digest into attempted and failed operations.
func (f *fleet) judge(w *simWindow, o *outcome) {
	d := w.digest
	o.attempt(d.steps + d.samples + d.dropped + int64(d.caps) + int64(d.placed))
	o.fail(d.dropped, "%d samples dropped by the pipeline", d.dropped)
	o.fail(int64(d.falseCaps), "%d caps landed on a job other than %s", d.falseCaps, antagonistJob)
	o.fail(int64(d.placed-d.capped), "%d of %d antagonists not capped within %d simulated minutes",
		d.placed-d.capped, d.placed, f.cfg.checkpointMinutes)
	if d.samples == 0 {
		o.fail(1, "no samples folded in the measured window")
	}
	fs := f.c.FaultStats()
	o.fail(fs.SpoolDropped, "%d batches dropped from machine spools", fs.SpoolDropped)
	o.fail(fs.Quarantined, "%d samples quarantined at ingress", fs.Quarantined)
	d.put(o)
}

// runSimEndToEnd is the --trace 0 run of a sim workload.
func runSimEndToEnd(cfg simConfig, seed int64, budget time.Duration, ms *metricSet, o *outcome) error {
	c := loadWidth()
	meter := startWindow()
	f, warmHash, err := cfg.setUp(seed, c, cfg.switches())
	if err != nil {
		return err
	}
	setups := []window{meter.stop(0)}
	w := f.measure(budget)
	f.judge(w, o)
	f.c.Close()
	f = nil // let the repeated set-ups below start from a collected heap
	if w.rssErr != nil {
		return w.rssErr
	}

	ms.set("peak_rss_mb", w.rssMB, 0)
	ms.set("live_heap_mb", w.heapMB, 0)
	costs := setWindowMetrics(ms, o, w.minutes)
	o.windows = w.minutes
	noteTail(o, "step", w.stepMs)

	// Set-up is timed three times and reported as a median; the
	// repetitions double as a determinism gate on the warmed-up spec
	// table. (Workers=1 against Workers=C is the traced run's gate.)
	for rep := 2; rep <= 3; rep++ {
		meter := startWindow()
		again, hash, err := cfg.setUp(seed, c, cfg.switches())
		if err != nil {
			return err
		}
		setups = append(setups, meter.stop(0))
		again.c.Close()
		o.attempt(1)
		if hash != warmHash {
			o.fail(1, "set-up %d: warmed-up spec table %s differs from the first set-up's %s", rep, hash[:12], warmHash[:12])
		}
	}
	setSetupMetric(ms, setups, costs)
	return nil
}

// noteTail records the highest percentile the sample supports.
func noteTail(o *outcome, what string, xs []float64) {
	sorted := sortedCopy(xs)
	p := highestSupportedPercentile(len(sorted))
	if p == 0 {
		o.note("%s: n=%d, too few for a percentile", what, len(sorted))
		return
	}
	tail := ""
	if p > 50 {
		tail = fmt.Sprintf(" p%g=%.3f ms", p, percentile(sorted, p))
	}
	o.note("%s: n=%d p50=%.3f ms%s max=%.3f ms", what, len(sorted), percentile(sorted, 50), tail, sorted[len(sorted)-1])
}
