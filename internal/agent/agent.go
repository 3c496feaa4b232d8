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
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/perfcnt"
	"repro/internal/pipeline"
)

// Agent is one machine's CPI² daemon. It keeps no task table of its
// own: which tasks run here, as which jobs, is the manager's.
type Agent struct {
	mach    *machine.Machine
	manager *core.Manager
	sampler *perfcnt.Sampler
	sink    pipeline.SampleSink
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
	// seq counts sample batches built by this agent; together with the
	// machine name it derives the deterministic per-batch trace ID.
	seq uint64
	// wake is the sampler's next window edge while no cap is in force,
	// zero otherwise: a Tick before it has nothing to sample, observe,
	// expire or renew, so it returns at once. fullTicks counts the
	// Ticks that ran.
	wake      time.Time
	fullTicks int64
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
		validator: core.NewSampleValidator("agent", 256),
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

// RegisterTask tells the agent's manager about a placed task; the
// scheduler (or cluster harness) calls this alongside machine.AddTask.
func (a *Agent) RegisterTask(id model.TaskID, job model.Job) { a.manager.RegisterTask(id, job) }

// TaskExited clears the manager's state for a departed task.
func (a *Agent) TaskExited(id model.TaskID) { a.manager.TaskExited(id) }

// WantSpec implements pipeline.SpecWatcher: the agent only needs specs
// for jobs with tasks on this machine, on this machine's platform.
func (a *Agent) WantSpec(key model.SpecKey) bool {
	return key.Platform == a.mach.Platform() && a.manager.Runs(key.Job)
}

// InterestVersion implements pipeline.SpecWatcher with the manager's.
func (a *Agent) InterestVersion() uint64 { return a.manager.InterestVersion() }

// SetTrace directs the agent's and its manager's causal spans to store
// (the manager holds it). Nil disables tracing.
func (a *Agent) SetTrace(store *trace.Store) { a.manager.SetTrace(store) }

// Trace returns the agent's span store (nil when untraced); the admin
// /debug/trace endpoint renders the causal chain from it.
func (a *Agent) Trace() *trace.Store { return a.manager.Trace() }

// DeliverSpec implements pipeline.SpecWatcher.
func (a *Agent) DeliverSpec(spec model.Spec) {
	if tr := a.manager.Trace(); tr != nil && !spec.UpdatedAt.IsZero() {
		tr.SpecRecv(trace.SpecID(string(spec.Job), string(spec.Platform), spec.UpdatedAt),
			a.mach.Name(), a.manager.SpecName(spec.Key(), a.mach.Platform()), spec.UpdatedAt, spec.CPIMean, spec.CPIStddev)
	}
	a.manager.UpdateSpec(spec)
}

// Tick runs one agent cycle at now: sample counters, analyse, publish,
// and expire caps. It returns the incidents raised this tick. Call it
// once per simulated second: while no cap is in force, a Tick between
// the sampler's window edges returns before touching the sampler or
// the manager.
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
	if now.Before(a.wake) {
		return nil
	}
	a.fullTicks++
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
	a.wake = time.Time{}
	if a.manager.CapsInForce() == 0 {
		a.wake = a.sampler.Next()
	}
	return incidents
}

// FullTicks returns how many Ticks ran in full rather than returning
// at once: a count, not a timing, of the agent's per-tick work.
func (a *Agent) FullTicks() int64 { return a.fullTicks }

// Reconcile runs the manager's Reconcile (core.Manager.Reconcile) and
// clears the wake time: a cap it adopts is renewed on every Tick.
func (a *Agent) Reconcile(now time.Time, entries []core.CapJournalEntry) (adopted, orphaned []model.TaskID) {
	a.wake = time.Time{}
	return a.manager.Reconcile(now, entries)
}

// toSamples turns each measurement into a sample of its task, keeping
// those of tasks registered with the manager: a task that exited
// between window end and now, or was never registered, has none.
func (a *Agent) toSamples(now time.Time, ms []perfcnt.Measurement) []model.Sample {
	// One trace context per batch, derived from (machine, batch seq):
	// agent ticks are serial per machine, so the ID sequence is
	// identical at any cluster worker count and under any fault plan.
	a.seq++
	id := trace.SampleID(a.mach.Name(), a.seq)
	out := a.sampleBuf[:0]
	for _, m := range ms {
		out = append(out, model.Sample{
			Job:       m.Task.Job,
			Task:      m.Task,
			Platform:  a.mach.Platform(),
			Timestamp: now,
			CPUUsage:  m.CPUUsage,
			CPI:       m.CPI,
			Machine:   a.mach.Name(),
			TraceID:   id,
		})
	}
	out = a.manager.KeepRegistered(out)
	if tr := a.manager.Trace(); tr != nil && len(out) > 0 {
		tr.Sample(id, a.mach.Name(), now, len(out))
	}
	a.sampleBuf = out
	return out
}
