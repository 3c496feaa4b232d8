package main

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// chunkMachines is how many machines one machine.tick or agent.tick
// span covers. A span per machine would put two clock reads around a
// two-microsecond call and keep millions of spans; a chunk keeps the
// clock under a percent of what it times.
const chunkMachines = 100

// obsMinutes is how long each observability setting is stepped for the
// obs.* metrics.
const obsMinutes = 3

// runSimTraced is the --trace 1 run of a sim workload. It measures the
// real Cluster.Step at Workers=C and Workers=1 over the fixed
// checkpoint (checking the two digests against each other), then drives
// an identically placed fleet through the benchmark's own serial loop
// with a span around every call into a layer, replays the captured
// samples and incidents through the layers the loop cannot time from
// outside, and (sim_antagonist) prices each observability hook.
func runSimTraced(cfg simConfig, seed int64, budget time.Duration, ms *metricSet, o *outcome, tr *tracer) error {
	c := loadWidth()

	// Reference runs: the program's own Step, untraced.
	wide, err := referenceRun(cfg, seed, c)
	if err != nil {
		return err
	}
	wide.f.judge(wide.w, o)
	wide.f.c = nil // the measurements are taken; let the cluster go
	serial, err := referenceRun(cfg, seed, 1)
	if err != nil {
		return err
	}
	o.attempt(1)
	if wide.w.digest != serial.w.digest {
		o.fail(1, "digest at workers=%d differs from workers=1: %+v vs %+v", c, wide.w.digest, serial.w.digest)
	}
	w := wide.w
	steps := float64(len(w.stepMs))
	sorted := sortedCopy(w.stepMs)
	ms.setP50("cluster.step_p50_ms", w.stepMs, 1)
	ms.setP50("cluster.sample_step_p50_ms", w.sampleStepMs, 1)
	ms.set("cluster.step_p95_ms", percentile(sorted, 95), len(sorted))
	ms.set("cluster.step_max_ms", sorted[len(sorted)-1], len(sorted))
	ms.setP50("cluster.step_w1_p50_ms", serial.w.stepMs, 1)
	ms.set("cluster.parallel_speedup", median(serial.w.stepMs)/median(w.stepMs), len(sorted))
	ms.set("cluster.allocs_per_step", float64(w.allocs.mallocs)/steps, len(sorted))
	ms.set("cluster.bytes_per_step", float64(w.allocs.bytes)/steps, len(sorted))
	ms.set("cluster.heap_live_kb_per_machine", w.heapMB*1024/float64(cfg.machines), 0)
	ms.set("cluster.heap_growth_mb_per_sim_min", (w.heapMB-w.heap0MB)/float64(cfg.checkpointMinutes), cfg.checkpointMinutes)
	ms.set("cluster.new_us_per_machine", us(wide.f.newDur)/float64(cfg.machines), cfg.machines)
	ms.set("scheduler.place_us_per_task", us(wide.f.placeDur)/float64(wide.f.placed), wide.f.placed)
	if cfg.antagonist {
		ms.set("cluster.time_to_cap_mean_sim_s", w.digest.timeToCapMeanS, w.digest.capped)
		ms.set("cluster.capped_antagonist_ratio", float64(w.digest.capped)/float64(w.digest.placed), w.digest.placed)
	}
	ms.setP50("forensics.add_us_per_incident", replayForensics(wide.incidents), 1)

	// The layer loop.
	ll, err := newLayerLoop(cfg, seed, tr)
	if err != nil {
		return err
	}
	if err := ll.run(budget); err != nil {
		return err
	}
	o.attempt(1)
	if ll.checkpointSamples != w.digest.samples {
		o.fail(1, "layer loop folded %d samples by the checkpoint, the real cluster %d", ll.checkpointSamples, w.digest.samples)
	}
	// The loop runs with observability off, so its untraced counterpart
	// is the real Step at Workers=1 with observability off as well.
	loopRefMs := median(serial.w.stepMs)
	if cfg.antagonist {
		if loopRefMs, err = obsMetrics(cfg, seed, ms); err != nil {
			return err
		}
	}
	ll.layerMetrics(ms, o, loopRefMs)
	ll.replayManagers(ms)
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// referenceResult is one untraced run of the real cluster to the
// checkpoint.
type referenceResult struct {
	f         *fleet
	w         *simWindow
	incidents []core.Incident
}

func referenceRun(cfg simConfig, seed int64, workers int) (*referenceResult, error) {
	f, _, err := cfg.setUp(seed, workers, cfg.switches())
	if err != nil {
		return nil, err
	}
	defer f.c.Close()
	w := f.measure(0)
	return &referenceResult{f: f, w: w, incidents: f.c.Incidents()}, nil
}

// replayForensics times Store.Add on each captured incident, in
// microseconds.
func replayForensics(incs []core.Incident) []float64 {
	store := forensics.NewStore()
	out := make([]float64, 0, len(incs))
	for _, inc := range incs {
		t0 := time.Now()
		store.Add(inc)
		out = append(out, us(time.Since(t0)))
	}
	return out
}

// timingSink stands between an agent and its queue: it times
// Queue.Publish and keeps a copy of every sample for the manager
// replay.
type timingSink struct {
	q        *pipeline.Queue
	ll       *layerLoop
	captured []model.Sample
}

func (s *timingSink) Publish(samples []model.Sample) error {
	t0 := time.Now()
	err := s.q.Publish(samples)
	s.ll.publishNs += int64(time.Since(t0))
	s.ll.publishSamples += len(samples)
	s.captured = append(s.captured, samples...)
	return err
}

// layerLoop drives a placed fleet without Cluster.Step: the benchmark's
// own agents, one queue each, one bus, ticked serially in machine
// order with observability off. It folds exactly the samples the real
// cluster folds, because placement, seeds and tick order per machine
// are the same.
type layerLoop struct {
	cfg    simConfig
	f      *fleet
	tr     *tracer
	machs  []*machine.Machine
	agents []*agent.Agent
	sinks  []*timingSink
	known  []int // tasks already registered with each agent
	bus    *pipeline.Bus
	now    time.Time
	step   int
	specs  []model.Spec // what the warm-up recompute pushed
	// warmSamples[i] is how many of machine i's captured samples
	// predate the warm-up recompute.
	warmSamples []int

	publishNs      int64
	publishSamples int

	// Per measured step: which spans belong to it is in the tracer;
	// these are the per-step figures that are not spans.
	stepPublishNs     []float64 // Queue.Publish ns per sample, sample steps only
	stepDrainNs       []float64 // DrainTo ns per sample, sample steps only
	sampleStep        map[int]bool
	checkpointSamples int64
}

func newLayerLoop(cfg simConfig, seed int64, tr *tracer) (*layerLoop, error) {
	f, err := cfg.build(seed, 1, obsAllOff)
	if err != nil {
		return nil, err
	}
	ll := &layerLoop{
		cfg: cfg, f: f, tr: tr,
		bus:        pipeline.NewBus(core.NewSpecBuilder(core.Params{MinSamplesPerTask: minSamplesPerTask})),
		now:        f.c.Now(),
		sampleStep: make(map[int]bool),
	}
	params := core.Params{MinSamplesPerTask: minSamplesPerTask}
	for i := 0; i < cfg.machines; i++ {
		m := f.c.Machine(fmt.Sprintf("machine-%04d", i))
		if m == nil {
			return nil, fmt.Errorf("layer loop: machine %d not found", i)
		}
		sink := &timingSink{q: pipeline.NewQueue(), ll: ll}
		a := agent.New(m, params, sink)
		ll.machs = append(ll.machs, m)
		ll.agents = append(ll.agents, a)
		ll.sinks = append(ll.sinks, sink)
		ll.bus.Watch(a)
	}
	ll.known = make([]int, cfg.machines)
	ll.warmSamples = make([]int, cfg.machines)
	ll.registerTasks()
	return ll, nil
}

// registerTasks tells each benchmark-owned agent about the tasks placed
// on its machine since the last scan (placement appends, so the new
// ones are at the end of Machine.Tasks).
func (ll *layerLoop) registerTasks() {
	for i, m := range ll.machs {
		tasks := m.Tasks()
		for _, id := range tasks[ll.known[i]:] {
			ll.agents[i].RegisterTask(id, ll.f.jobs[id.Job])
		}
		ll.known[i] = len(tasks)
	}
}

// run warms the fleet up through the loop, forces the spec refresh,
// lands the antagonists, and then measures whole simulated minutes: at
// least the checkpoint, then until budget has elapsed.
func (ll *layerLoop) run(budget time.Duration) error {
	defer ll.f.c.Close()
	for i := 0; i < ll.cfg.warmMinutes*60; i++ {
		ll.tick(nil)
	}
	ll.specs = ll.refreshSpecs(nil, -1, true)
	if len(ll.specs) == 0 {
		return fmt.Errorf("layer loop: warm-up produced no robust spec")
	}
	for i, s := range ll.sinks {
		ll.warmSamples[i] = len(s.captured)
	}
	if err := ll.f.landAntagonists(ll.now); err != nil {
		return err
	}
	ll.registerTasks()

	recv0, _ := ll.bus.Stats()
	began := time.Now()
	for minute := 0; minute < ll.cfg.checkpointMinutes || time.Since(began) < budget; minute++ {
		for s := 0; s < 60; s++ {
			ll.tick(ll.tr)
		}
		if minute+1 == ll.cfg.checkpointMinutes {
			recv, _ := ll.bus.Stats()
			ll.checkpointSamples = recv - recv0
		}
	}
	return nil
}

// tick is one simulated second, the body of Cluster.Step laid open.
func (ll *layerLoop) tick(tr *tracer) {
	const dt = time.Second
	ll.now = ll.now.Add(dt)
	id := ll.step
	ll.step++
	now := ll.now
	root := tr.begin("loop.step", -1, id)
	pubNs0, pubN0 := ll.publishNs, ll.publishSamples
	for lo := 0; lo < len(ll.machs); lo += chunkMachines {
		hi := lo + chunkMachines
		if hi > len(ll.machs) {
			hi = len(ll.machs)
		}
		sp := tr.begin("machine.tick", root, id)
		for i := lo; i < hi; i++ {
			_, exited := ll.machs[i].Tick(now, dt)
			for _, task := range exited {
				ll.agents[i].TaskExited(task)
			}
		}
		tr.end(sp, hi-lo)
		sp = tr.begin("agent.tick", root, id)
		for i := lo; i < hi; i++ {
			ll.agents[i].Tick(now)
		}
		tr.end(sp, hi-lo)
	}
	recv0, _ := ll.bus.Stats()
	sp := tr.begin("pipeline.queue_drain", root, id)
	t0 := time.Now()
	for _, s := range ll.sinks {
		_ = s.q.DrainTo(ll.bus) // the bus counts rejects; it never errors
	}
	drainNs := time.Since(t0)
	recv1, _ := ll.bus.Stats()
	folded := int(recv1 - recv0)
	tr.end(sp, folded)
	if tr != nil && folded > 0 {
		ll.sampleStep[id] = true
		ll.stepDrainNs = append(ll.stepDrainNs, float64(drainNs)/float64(folded))
		if n := ll.publishSamples - pubN0; n > 0 {
			ll.stepPublishNs = append(ll.stepPublishNs, float64(ll.publishNs-pubNs0)/float64(n))
		}
	}
	ll.refreshSpecs(tr, root, false)
	if ll.f.tree != nil {
		sp = tr.begin("workload.end_tick", root, id)
		ll.f.tree.EndTick()
		tr.end(sp, 1)
	}
	tr.end(root, len(ll.machs))
}

// refreshSpecs recomputes and pushes specs when the builder's interval
// is due (every Step asks, as Cluster.Step does) or when forced.
func (ll *layerLoop) refreshSpecs(tr *tracer, parent int, force bool) []model.Spec {
	if !force && !ll.bus.Builder().Due(ll.now) {
		return nil
	}
	sp := tr.begin("core.spec_recompute", parent, ll.step)
	specs := ll.bus.Builder().Recompute(ll.now)
	tr.end(sp, len(specs))
	sp = tr.begin("pipeline.spec_push", parent, ll.step)
	ll.bus.Push(specs)
	tr.end(sp, len(specs))
	return specs
}

// layerMetrics reads the per-layer figures off the loop's spans.
// serialStepMs is the real Step's p50 at Workers=1, the untraced
// counterpart of loop.step.
func (ll *layerLoop) layerMetrics(ms *metricSet, o *outcome, serialStepMs float64) {
	spans := ll.tr.spans
	self := selfTimes(spans)
	var machineUs, plainUs, sampleUs, loopMs, layerMs []float64
	layerSum := make(map[int]float64) // step id → ms in child spans
	for i, s := range spans {
		switch s.Name {
		case "machine.tick":
			machineUs = append(machineUs, float64(s.dur())/1e3/float64(s.N))
		case "agent.tick":
			perAgent := float64(s.dur()) / 1e3 / float64(s.N)
			if ll.sampleStep[s.ID] {
				sampleUs = append(sampleUs, perAgent)
			} else {
				plainUs = append(plainUs, perAgent)
			}
		case "loop.step":
			loopMs = append(loopMs, float64(s.dur())/1e6)
			layerSum[s.ID] = float64(s.dur()-self[i]) / 1e6
		}
	}
	for _, v := range layerSum {
		layerMs = append(layerMs, v)
	}
	ms.setP50("machine.tick_us", machineUs, 1)
	ms.setP50("agent.tick_plain_us", plainUs, 1)
	ms.setP50("agent.tick_sample_us", sampleUs, 1)
	ms.setP50("pipeline.queue_publish_ns_per_sample", ll.stepPublishNs, 1)
	ms.setP50("pipeline.queue_drain_ns_per_sample", ll.stepDrainNs, 1)
	ms.set("cluster.self_ms_per_step", serialStepMs-median(layerMs), len(layerMs))
	ms.set("bench.trace_overhead_ratio", median(loopMs)/serialStepMs, len(loopMs))
	total := float64(totalNs(spans, "loop.step"))
	for _, name := range []string{"machine.tick", "agent.tick", "pipeline.queue_drain", "workload.end_tick"} {
		o.note("%s is %.1f%% of loop.step", name, 100*float64(totalNs(spans, name))/total)
	}
}

// nopCapper lets a replayed manager decide without a machine to act on.
type nopCapper struct{}

func (nopCapper) Cap(model.TaskID, float64) error { return nil }
func (nopCapper) Uncap(model.TaskID) error        { return nil }

// replayManagers feeds each machine's captured samples, in order,
// through a standalone core.Manager holding the same specs, timing
// every Observe call. Calls that come back with an incident ran an
// antagonist identification (the paper's ≈100 µs correlation analysis);
// the rest are the plain record-and-detect path.
func (ll *layerLoop) replayManagers(ms *metricSet) {
	params := core.Params{MinSamplesPerTask: minSamplesPerTask}
	var observeNs, identifyUs []float64
	for i, sink := range ll.sinks {
		mgr := core.NewManager(ll.machs[i].Name(), params, nopCapper{})
		for _, job := range ll.f.jobs {
			mgr.RegisterJob(job)
		}
		var last time.Time
		for k, s := range sink.captured {
			if k == ll.warmSamples[i] {
				for _, spec := range ll.specs {
					mgr.UpdateSpec(spec)
				}
			}
			if !s.Timestamp.Equal(last) {
				mgr.Tick(s.Timestamp) // expire caps, as the agent does every tick
				last = s.Timestamp
			}
			t0 := time.Now()
			inc := mgr.Observe(s)
			d := time.Since(t0)
			if inc != nil {
				identifyUs = append(identifyUs, us(d))
			} else {
				observeNs = append(observeNs, float64(d))
			}
		}
	}
	ms.setP50("core.observe_ns_per_sample", observeNs, 1)
	ms.setP50("core.identify_us_per_analysis", identifyUs, 1)
}

// obsMetrics steps the sim_antagonist fleet under each observability
// setting and prices the hooks: everything on over everything off, then
// each hook alone minus everything off. It returns the step p50 at
// Workers=1 with everything off.
func obsMetrics(cfg simConfig, seed int64, ms *metricSet) (float64, error) {
	cfg.checkpointMinutes = obsMinutes
	stepP50 := func(sw obsSwitches, workers int) (float64, int, error) {
		f, _, err := cfg.setUp(seed, workers, sw)
		if err != nil {
			return 0, 0, err
		}
		defer f.c.Close()
		w := f.measure(0)
		return median(w.stepMs), len(w.stepMs), nil
	}
	c := loadWidth()
	off, n, err := stepP50(obsAllOff, c)
	if err != nil {
		return 0, err
	}
	on, _, err := stepP50(obsAllOn, c)
	if err != nil {
		return 0, err
	}
	ms.set("obs.overhead_ratio", on/off, n)
	for _, one := range []struct {
		name string
		sw   obsSwitches
	}{
		{"obs.registry_ms_per_step", obsSwitches{registry: true}},
		{"obs.events_ms_per_step", obsSwitches{events: true}},
		{"obs.trace_ms_per_step", obsSwitches{trace: true}},
		{"obs.faultplan_ms_per_step", obsSwitches{faults: true}},
	} {
		p50, n, err := stepP50(one.sw, c)
		if err != nil {
			return 0, err
		}
		ms.set(one.name, p50-off, n)
	}
	offSerial, _, err := stepP50(obsAllOff, 1)
	return offSerial, err
}
