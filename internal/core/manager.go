package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs/trace"
	"repro/internal/timeseries"
)

// Incident records one detected performance-isolation event: a victim
// whose CPI went anomalous, the ranked suspects, and what was done.
// Incidents are what CPI² logs for offline (Dremel-style) forensics
// and what operators act on during conservative rollout.
type Incident struct {
	Time      time.Time
	Machine   string
	Victim    model.TaskID
	VictimJob model.JobName
	VictimCPI float64
	Threshold float64
	Suspects  []Suspect // ranked, descending correlation
	Decision  Decision
	// Reaction is a cap's detect-to-cap time (first outlier of the
	// episode → this decision, in simulation time; DetectToCap observes
	// it unless negative), zero for any other action.
	Reaction time.Duration
	// Group is set when GroupDetection found an antagonist group after
	// no single suspect qualified. If a member was capped, Decision is
	// the first such cap and GroupDecisions the actions on the other
	// members, so each cap appears once across the two.
	Group          *GroupSuspect
	GroupDecisions []Decision
	// TraceID is the causal-tracing context of the sample batch that
	// triggered the incident, joining it to the obs/trace span stores
	// and the forensics table ("why was this task capped?").
	TraceID trace.ID
	// Identifier names the identification algorithm that ranked the
	// suspects (see NewIdentifier), so incident streams mixing
	// algorithms — A/B rollouts, per-cell configs — stay attributable.
	Identifier string
}

// Manager is the per-machine CPI² engine: it ingests the local
// sampler's measurements, maintains per-task CPI and CPU-usage
// history, judges each sample against the pushed specs (detect.go),
// and — when a task goes anomalous and the per-machine analysis rate
// limit allows — ranks suspects and caps an antagonist under the §5
// policy (enforce.go). It is the component labelled "agent" in Figure
// 6, minus the transport (package agent adds that), and the machine's
// one task table: registrations, records and caps sit under one mutex.
type Manager struct {
	params  Params
	machine string
	capper  Capper
	// identifier ranks suspects each analysis round (Params.Identifier
	// selects it). identifierForget is non-nil when the identifier
	// keeps per-task state that must drop on task exit.
	identifier       Identifier
	identifierForget func(model.TaskID)
	metrics          *Metrics                    // never nil; zero Metrics = uninstrumented
	events           EventSink                   // never nil; nopSink = unlogged
	tracer           atomic.Pointer[trace.Store] // nil inside = untraced; read without mu

	mu           sync.Mutex
	jobs         map[model.JobName]*jobEntry
	specs        map[model.SpecKey]model.Spec
	tasks        map[model.TaskID]taskEntry
	lastAnalysis time.Time
	interest     atomic.Uint64 // InterestVersion: written under mu, read without

	// The caps in force (enforce.go). caps is len(active): written
	// under mu, read without it by Tick and CapsInForce.
	journal CapJournal // never nil; nopJournal = unjournalled
	active  map[model.TaskID]*activeCap
	caps    atomic.Int32
	// rounds remembers victim→task cap rounds even after expiry so
	// feedback throttling can escalate on repeat offenders.
	rounds map[taskPair]int
	// lastNow is the most recent decision time the manager has seen:
	// a decision, Reconcile, or a Tick with a cap in force (an idle
	// Tick returns before the lock, and there is no cap for it to
	// stamp). Externally triggered releases (TaskExited, ReleaseAll)
	// stamp their events with it so event logs stay deterministic under
	// simulated clocks.
	lastNow time.Time
	// journalErrs counts failed journal appends; enforcement proceeds
	// regardless (leases bound the damage), but the count is surfaced
	// so a dead disk is visible.
	journalErrs int64
}

// jobEntry is what the manager keeps per job: its metadata, how many
// registered tasks it has here, and the Name spec_recv spans give its
// spec key while it has any.
type jobEntry struct {
	model.Job
	tasks int
	spec  trace.Name
}

// taskEntry is the manager's row for one task: the job it is
// registered under (nil for a task only observed, as replay's are) and
// its record, made on its first sample: until then it is no suspect.
type taskEntry struct {
	job *jobEntry
	rec *taskSeries
}

// taskSeries is a task's record, in one allocation: its
// CPI and CPU-usage series over LookBack, its outlier flags over twice
// the ViolationWindow, when its open outlier episode began, and the
// Name its detect spans carry, made on the first.
type taskSeries struct {
	cpi, usage timeseries.Series
	flags      timeseries.Series // 1 for an outlier, 0 for a judged normal sample
	// episode is the first outlier of the current run of violations,
	// the anchor of the detect-to-cap SLI; zero while none is open
	// (samples carry no zero timestamp: the validator drops them).
	episode time.Time
	name    trace.Name
}

// NewManager creates a per-machine manager named machine, applying
// caps through capper.
func NewManager(machine string, p Params, capper Capper) *Manager {
	p = p.Sanitize()
	ident, err := NewIdentifier(p.Identifier, p)
	if err != nil {
		// Identifier names come from flags or literals; daemons validate
		// them before building agents, so reaching here is a bug.
		panic(err)
	}
	m := &Manager{
		params:     p,
		machine:    machine,
		capper:     capper,
		identifier: ident,
		metrics:    &Metrics{},
		events:     nopSink{},
		jobs:       make(map[model.JobName]*jobEntry),
		specs:      make(map[model.SpecKey]model.Spec),
		tasks:      make(map[model.TaskID]taskEntry),
		journal:    nopJournal{},
		active:     make(map[model.TaskID]*activeCap),
		rounds:     make(map[taskPair]int),
	}
	if f, ok := ident.(interface{ Forget(model.TaskID) }); ok {
		m.identifierForget = f.Forget
	}
	return m
}

// SetMetrics instruments the manager with m. A nil m disables
// instrumentation. The field write is locked — Observe, analyse and
// the cap paths read m.metrics under m.mu from the agent's tick
// goroutine, so the setter must not race them.
func (m *Manager) SetMetrics(mm *Metrics) {
	if mm == nil {
		mm = &Metrics{}
	}
	m.mu.Lock()
	m.metrics = mm
	m.mu.Unlock()
}

// SetEvents directs the manager's structured forensics events —
// incidents and cap lifecycle — to sink. A nil sink disables event
// logging. Locked for the same reason as SetMetrics.
func (m *Manager) SetEvents(sink EventSink) {
	if sink == nil {
		sink = nopSink{}
	}
	m.mu.Lock()
	m.events = sink
	m.mu.Unlock()
}

// SetTrace directs the manager's detect spans, and its agent's sample
// and spec_recv spans, to store; its decisions are the incidents it
// emits. Nil disables tracing (the default).
func (m *Manager) SetTrace(store *trace.Store) { m.tracer.Store(store) }

// Trace returns the manager's span store, nil when untraced.
func (m *Manager) Trace() *trace.Store { return m.tracer.Load() }

// RegisterJob installs job metadata for tasks on this machine without
// registering a task: the job's specs stay unwanted (Runs).
func (m *Manager) RegisterJob(j model.Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobLocked(j.Name).Job = j
}

// RegisterTask records a placed task and installs its job's metadata:
// until TaskExited its samples are kept (KeepRegistered) and its
// job's specs are wanted (Runs). A second call only updates the job.
func (m *Manager) RegisterTask(id model.TaskID, job model.Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobLocked(job.Name).Job = job
	if t := m.tasks[id]; t.job == nil {
		t.job = m.jobLocked(id.Job)
		if t.job.tasks++; t.job.tasks == 1 {
			m.interest.Add(1)
		}
		m.tasks[id] = t
	}
}

// KeepRegistered keeps, in place and in order, the samples of ss whose
// task is registered here, under one lock for the batch.
func (m *Manager) KeepRegistered(ss []model.Sample) []model.Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.DeleteFunc(ss, func(s model.Sample) bool { return m.tasks[s.Task].job == nil })
}

// Job returns the job called name as registered here, or jobLocked's
// default (latency-sensitive) for a job never registered.
func (m *Manager) Job(name model.JobName) model.Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobLocked(name).Job
}

// Runs reports whether a registered task of job is here.
func (m *Manager) Runs(job model.JobName) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[job]
	return j != nil && j.tasks > 0
}

// InterestVersion moves when, and only when, the set of jobs Runs
// reports does (pipeline.SpecWatcher's contract).
func (m *Manager) InterestVersion() uint64 { return m.interest.Load() }

// SpecName returns the Name a spec_recv span on this machine, whose
// platform is here, gives key: kept while key is on here and its job
// has registered tasks, made afresh otherwise.
func (m *Manager) SpecName(key model.SpecKey, here model.Platform) trace.Name {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[key.Job]
	if j == nil || j.tasks == 0 || key.Platform != here {
		return trace.NewName(key.String())
	}
	if j.spec == (trace.Name{}) {
		j.spec = trace.NewName(key.String())
	}
	return j.spec
}

// TaskExited clears all state for a departed task, including any
// active cap on it — an exited antagonist's cap must drop out of
// ActiveCaps (and the journal) immediately, not linger until expiry
// failing to uncap a cgroup that no longer exists. The cap is released
// without driving the mechanism (the task's cgroup, and the limit on
// it, are already gone), journalled and logged like any other, stamped
// with the last decision time.
func (m *Manager) TaskExited(task model.TaskID) {
	m.mu.Lock()
	if j := m.tasks[task].job; j != nil {
		if j.tasks--; j.tasks == 0 {
			j.spec = trace.Name{}
			m.interest.Add(1)
		}
	}
	delete(m.tasks, task)
	if ac, ok := m.active[task]; ok {
		m.releaseLocked(m.lastNow, ac, "task_exited")
	}
	m.mu.Unlock()
	if m.identifierForget != nil {
		m.identifierForget(task)
	}
}

// Observe ingests one CPI sample and runs the full local loop:
// record → detect → (maybe) correlate → (maybe) enforce. It returns a
// non-nil Incident, also emitted as an "incident" event, when an anomaly
// was analysed this round; the manager keeps no incident log.
func (m *Manager) Observe(s model.Sample) *Incident {
	m.mu.Lock()
	ts, a := m.observeLocked(s)
	metrics, tracer := m.metrics, m.tracer.Load() // metrics under m.mu: SetMetrics may race otherwise
	var name trace.Name
	if a.Anomalous && tracer != nil {
		if ts.name == (trace.Name{}) {
			ts.name = trace.NewName(s.Task.String())
		}
		name = ts.name
	}
	m.mu.Unlock()

	metrics.SamplesObserved.Inc()
	if a.Filtered {
		metrics.SamplesFiltered.Inc()
	}
	if a.Outlier {
		metrics.Outliers.Inc()
	}
	if a.HasSpec && a.SpecAge > 0 {
		metrics.SpecStaleness.Observe(a.SpecAge.Seconds())
	}
	if !a.Anomalous {
		return nil
	}
	metrics.Anomalies.Inc()
	if tracer != nil {
		tracer.Detect(s.TraceID, m.machine, name, s.Timestamp, a.SpecAge.Seconds(), s.CPI, a.Threshold)
	}
	return m.analyse(s, a)
}

// observeLocked records s in its task's record, made on the task's
// first sample, and judges it. Callers hold m.mu.
func (m *Manager) observeLocked(s model.Sample) (*taskSeries, Assessment) {
	t := m.tasks[s.Task]
	if t.rec == nil {
		// A series over age holds at most age/SamplingInterval + 1
		// points at its sampling period; one more leaves room for jitter.
		bounded := func(age time.Duration) timeseries.Series {
			return timeseries.Bounded(age, 0, int(age/m.params.SamplingInterval)+2)
		}
		t.rec = &taskSeries{
			cpi:   bounded(m.params.LookBack()),
			usage: bounded(m.params.LookBack()),
			flags: bounded(2 * m.params.ViolationWindow),
		}
		m.tasks[s.Task] = t
	}
	ts := t.rec
	_ = ts.cpi.Append(s.Timestamp, s.CPI)
	_ = ts.usage.Append(s.Timestamp, s.CPUUsage)
	return ts, m.judgeLocked(ts, s)
}

// analyse runs one rate-limited antagonist-identification round.
func (m *Manager) analyse(s model.Sample, a Assessment) *Incident {
	m.mu.Lock()
	metrics, events := m.metrics, m.events // snapshot under m.mu
	// §4.2: at most one analysis per AnalysisRateLimit per machine, so
	// the analysis itself never becomes the antagonist. A negative delta
	// means the agent's clock moved backwards (a skew fault landing, or
	// NTP stepping the clock): allow the analysis and reset the anchor,
	// otherwise every round is suppressed until the clock catches back
	// up to the pre-skew lastAnalysis.
	if !m.lastAnalysis.IsZero() {
		if delta := s.Timestamp.Sub(m.lastAnalysis); delta >= 0 && delta < m.params.AnalysisRateLimit {
			m.mu.Unlock()
			metrics.AnalysesRateLimited.Inc()
			return nil
		}
	}
	m.lastAnalysis = s.Timestamp
	metrics.AnalysesRun.Inc()

	victimCPI := &m.tasks[s.Task].rec.cpi
	suspects := make([]SuspectInput, 0, len(m.tasks))
	for task, t := range m.tasks {
		if task == s.Task || t.rec == nil {
			continue
		}
		j := m.jobLocked(task.Job).Job
		suspects = append(suspects, SuspectInput{Task: task, Job: task.Job, Class: j.Class, Priority: j.Priority, Usage: &t.rec.usage})
	}
	victimJob := m.jobLocked(s.Job).Job
	m.mu.Unlock()

	now := s.Timestamp.Add(time.Nanosecond)
	ranked := m.identifier.Identify(IdentifyInput{
		Victim:     s.Task,
		VictimCPI:  victimCPI,
		Threshold:  a.Threshold,
		SpecMean:   a.SpecMean,
		SpecStddev: a.SpecStddev,
		Now:        now,
		Window:     m.params.CorrelationWindow,
		Period:     m.params.SamplingInterval,
		Suspects:   suspects,
	})
	m.mu.Lock()
	decision := m.decideLocked(s.Timestamp, s.Task, victimJob, ranked)
	m.mu.Unlock()

	// No individual culprit: try the group hypothesis (§4.2 future
	// work) — several tasks taking turns can hide below the threshold
	// individually while their union explains the victim's CPI.
	var group *GroupSuspect
	var groupDecisions []Decision
	if decision.Action == ActionNone && m.params.GroupDetection {
		g := FindAntagonistGroup(victimCPI, suspects,
			now, m.params.CorrelationWindow, m.params.SamplingInterval, maxGroupSize)
		if len(g.Members) >= 2 && g.Correlation >= m.params.CorrelationThreshold {
			group = &g
			m.mu.Lock()
			groupDecisions = m.decideGroupLocked(s.Timestamp, s.Task, victimJob, g)
			m.mu.Unlock()
			for i, d := range groupDecisions {
				if d.Action == ActionCap {
					// The first group cap is the headline decision; it
					// leaves GroupDecisions so each cap is listed once.
					decision = d
					groupDecisions = append(groupDecisions[:i], groupDecisions[i+1:]...)
					break
				}
			}
		}
	}

	// Detect-to-cap reaction time: first outlier of the episode → this
	// cap decision, in simulation time.
	var reaction time.Duration
	if decision.Action == ActionCap && !a.FirstOutlierAt.IsZero() {
		if reaction = s.Timestamp.Sub(a.FirstOutlierAt); reaction >= 0 {
			metrics.DetectToCap.Observe(reaction.Seconds())
		}
	}
	inc := &Incident{
		Time:           s.Timestamp,
		Machine:        m.machine,
		Victim:         s.Task,
		VictimJob:      s.Job,
		VictimCPI:      s.CPI,
		Threshold:      a.Threshold,
		Suspects:       ranked,
		Decision:       decision,
		Reaction:       reaction,
		Group:          group,
		GroupDecisions: groupDecisions,
		TraceID:        s.TraceID,
		Identifier:     m.identifier.Name(),
	}
	if group != nil {
		metrics.GroupDetections.Inc()
	}
	metrics.Incidents.With(decision.Action.String()).Inc()
	events.Emit(inc.Time, "incident", inc.Record())
	return inc
}

// jobLocked returns the entry of the job called name, made on first
// use and never deleted (registered tasks point at it). A job never
// registered here is latency-sensitive: protected as a victim, never
// capped as a suspect. Callers hold m.mu.
func (m *Manager) jobLocked(name model.JobName) *jobEntry {
	j := m.jobs[name]
	if j == nil {
		j = &jobEntry{Job: model.Job{Name: name, Class: model.ClassLatencySensitive}}
		m.jobs[name] = j
	}
	return j
}

// CPISeries returns a task's recorded CPI series, nil if unknown.
func (m *Manager) CPISeries(task model.TaskID) *timeseries.Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts := m.tasks[task].rec; ts != nil {
		return &ts.cpi
	}
	return nil
}
