// Package agent implements the per-machine CPI² node agent: the
// "system daemon" of §3.1 plus the "management agent" of §4.1. Each
// tick it drives the duty-cycle perf sampler over the machine's
// per-cgroup counters, turns completed measurements into CPI samples,
// feeds them to the local CPI² manager (detect → correlate → enforce),
// ships them up the pipeline, and expires hard caps.
//
// The agent is transport-agnostic: it publishes to any
// pipeline.SampleSink. The simulator hands it an in-process pipeline
// Queue; cmd/cpi2agent hands it a pipeline.NewEgress (Router →
// Spooler → Redialer), the deployable shape, whose Redialers hold the
// TCP connections to the aggregator shards.
package agent

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/perfcnt"
	"repro/internal/pipeline"
)

// Agent is one machine's CPI² daemon.
type Agent struct {
	mach    *machine.Machine
	manager *core.Manager
	sampler *perfcnt.Sampler
	sink    pipeline.SampleSink
	params  core.Params
	// validator gates every sample at egress: garbage from a wrapped
	// counter or zero-instruction window is quarantined here, before it
	// can reach local detection or the wire. Never nil.
	validator *core.SampleValidator
	// readCounters is the bound columnar counter reader handed to the
	// sampler, built once so the per-tick hot path does not re-allocate
	// the method-value closure.
	readCounters func(*perfcnt.Snapshot)
	// sampleBuf is the reusable sample-assembly column: toSamples fills
	// it in place each completed window, and the batch is fully consumed
	// (validated, observed, published-by-copy) within the same Tick.
	sampleBuf []model.Sample

	mu    sync.Mutex
	tasks map[string]taskInfo // cgroup name → identity
	// jobs counts the entries of tasks per job (a cgroup name spells its
	// job, so an entry never changes job), which makes WantSpec one
	// lookup; interest is the agent's InterestVersion, bumped under mu
	// when a job gets its first task or loses its last.
	jobs     map[model.JobName]jobState
	interest atomic.Uint64
	// seq counts sample batches built by this agent; together with the
	// machine name it derives the deterministic per-batch trace ID.
	seq uint64
	// tracer is read lock-free on every tick (the cluster's parallel
	// phase ticks thousands of agents; taking a.mu per tick just to
	// snapshot this handle showed up in profiles); nil inside means
	// untraced (the default).
	tracer atomic.Pointer[trace.Store]
}

type taskInfo struct {
	id  model.TaskID
	job model.Job
}

// jobState is what the agent keeps per job with tasks here.
type jobState struct {
	tasks int
	// spec is the Name of the job's spec key (on this machine's
	// platform) on spec_recv spans, made on the first traced receipt.
	spec trace.Name
}

// New creates an agent for mach. sink may be nil (no sample export —
// local detection still works, which is the availability property the
// paper's design aims for: anomalies are detected on-machine even if
// the pipeline is down).
func New(mach *machine.Machine, params core.Params, sink pipeline.SampleSink) *Agent {
	p := params.Sanitize()
	a := &Agent{
		mach:    mach,
		manager: core.NewManager(mach.Name(), p, mach),
		sampler: perfcnt.NewSampler(perfcnt.Config{
			Duration: p.SamplingDuration,
			Interval: p.SamplingInterval,
		}),
		sink:      sink,
		params:    p,
		validator: core.NewSampleValidator("agent", 256),
		tasks:     make(map[string]taskInfo),
		jobs:      make(map[model.JobName]jobState),
	}
	a.readCounters = mach.ReadCounters
	return a
}

// Machine returns the agent's machine.
func (a *Agent) Machine() *machine.Machine { return a.mach }

// Manager returns the agent's CPI² manager (operator tooling and
// tests reach through this).
func (a *Agent) Manager() *core.Manager { return a.manager }

// Validator returns the agent's egress sample validator, for wiring
// metrics/clock and inspecting the quarantine.
func (a *Agent) Validator() *core.SampleValidator { return a.validator }

// RegisterTask tells the agent about a placed task; the scheduler (or
// cluster harness) calls this alongside machine.AddTask.
func (a *Agent) RegisterTask(id model.TaskID, job model.Job) {
	name := id.String()
	a.mu.Lock()
	if _, exists := a.tasks[name]; !exists {
		a.countJobTask(id.Job, +1)
	}
	a.tasks[name] = taskInfo{id: id, job: job}
	a.mu.Unlock()
	a.manager.RegisterJob(job)
}

// TaskExited clears agent state for a departed task.
func (a *Agent) TaskExited(id model.TaskID) {
	name := id.String()
	a.mu.Lock()
	if _, exists := a.tasks[name]; exists {
		a.countJobTask(id.Job, -1)
	}
	delete(a.tasks, name)
	a.mu.Unlock()
	a.manager.TaskExited(id)
}

// countJobTask adds delta (±1) to job's task count; the set of jobs
// changes only when a count leaves or reaches zero. Callers hold a.mu.
func (a *Agent) countJobTask(job model.JobName, delta int) {
	js := a.jobs[job]
	js.tasks += delta
	if js.tasks == 0 {
		delete(a.jobs, job)
	} else {
		a.jobs[job] = js
	}
	if n := js.tasks; n == 0 || (delta > 0 && n == 1) {
		a.interest.Add(1)
	}
}

// WantSpec implements pipeline.SpecWatcher: the agent only needs specs
// for jobs with tasks on this machine, on this machine's platform.
func (a *Agent) WantSpec(key model.SpecKey) bool {
	if key.Platform != a.mach.Platform() {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.jobs[key.Job].tasks > 0
}

// InterestVersion implements pipeline.SpecWatcher: it moves when the
// set of jobs with tasks here does, not when a task comes or goes
// inside a job that stays.
func (a *Agent) InterestVersion() uint64 { return a.interest.Load() }

// SetTrace directs the agent's causal spans to store and forwards the
// store to the manager (detect spans). Nil disables tracing.
func (a *Agent) SetTrace(store *trace.Store) {
	a.tracer.Store(store)
	a.manager.SetTrace(store)
}

// Trace returns the agent's span store (nil when untraced); the admin
// /debug/trace endpoint renders the causal chain from it.
func (a *Agent) Trace() *trace.Store { return a.tracer.Load() }

// DeliverSpec implements pipeline.SpecWatcher.
func (a *Agent) DeliverSpec(spec model.Spec) {
	if tr := a.tracer.Load(); tr != nil && !spec.UpdatedAt.IsZero() {
		tr.SpecRecv(trace.SpecID(string(spec.Job), string(spec.Platform), spec.UpdatedAt),
			a.mach.Name(), a.specName(spec.Key()), spec.UpdatedAt, spec.CPIMean, spec.CPIStddev)
	}
	a.manager.UpdateSpec(spec)
}

// specName returns the Name spec_recv spans give key: kept while the
// agent runs tasks of the key's job on its platform, made afresh
// otherwise.
func (a *Agent) specName(key model.SpecKey) trace.Name {
	a.mu.Lock()
	defer a.mu.Unlock()
	js, ok := a.jobs[key.Job]
	if !ok || key.Platform != a.mach.Platform() {
		return trace.NewName(key.String())
	}
	if js.spec == (trace.Name{}) {
		js.spec = trace.NewName(key.String())
		a.jobs[key.Job] = js
	}
	return js.spec
}

// Tick runs one agent cycle at now: sample counters, analyse, publish,
// and expire caps. It returns the incidents raised this tick. Call it
// once per simulated second; the duty-cycle sampler internally limits
// real work to window boundaries.
//
// Tick must not be called concurrently on the SAME agent, but DISTINCT
// agents may tick concurrently as long as each agent's sample sink is
// safe for concurrent Publish (the cluster gives every agent its own
// pipeline.Queue and drains the queues serially, in machine order, at
// the tick barrier).
//
// Tick reads no wall clock: a daemon that wants its tick timed wraps
// the call (cmd/cpi2agent's cpi2_agent_tick_seconds).
func (a *Agent) Tick(now time.Time) []core.Incident {
	measurements := a.sampler.Tick(now, a.readCounters)
	var incidents []core.Incident
	if len(measurements) > 0 {
		samples := a.validator.Filter(a.toSamples(now, measurements))
		for _, s := range samples {
			if inc := a.manager.Observe(s); inc != nil {
				incidents = append(incidents, *inc)
			}
		}
		if a.sink != nil && len(samples) > 0 {
			_ = a.sink.Publish(samples) // losing samples is tolerable
		}
	}
	a.manager.Tick(now)
	return incidents
}

func (a *Agent) toSamples(now time.Time, ms []perfcnt.Measurement) []model.Sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	// One trace context per batch, derived from (machine, batch seq):
	// agent ticks are serial per machine, so the ID sequence is
	// identical at any cluster worker count and under any fault plan.
	a.seq++
	id := trace.SampleID(a.mach.Name(), a.seq)
	tid := id.String()
	out := a.sampleBuf[:0]
	for _, m := range ms {
		info, ok := a.tasks[m.Cgroup]
		if !ok {
			continue // task exited between window end and now
		}
		out = append(out, model.Sample{
			Job:       info.id.Job,
			Task:      info.id,
			Platform:  a.mach.Platform(),
			Timestamp: now,
			CPUUsage:  m.CPUUsage,
			CPI:       m.CPI,
			Machine:   a.mach.Name(),
			TraceID:   tid,
		})
	}
	if tr := a.tracer.Load(); tr != nil && len(out) > 0 {
		tr.Sample(id, a.mach.Name(), now, len(out))
	}
	a.sampleBuf = out
	return out
}
