package core

import (
	"fmt"
	"sync"
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
	// Group is set when GroupDetection found an antagonist group after
	// no single suspect qualified; GroupDecisions records the per-
	// member actions.
	Group          *GroupSuspect
	GroupDecisions []Decision
	// TraceID is the causal-tracing context of the sample batch that
	// triggered the incident, joining it to the obs/trace span stores
	// and the forensics table ("why was this task capped?").
	TraceID string
	// Identifier names the identification algorithm that ranked the
	// suspects (see NewIdentifier), so incident streams mixing
	// algorithms — A/B rollouts, per-cell configs — stay attributable.
	Identifier string
}

// Manager is the per-machine CPI² engine: it ingests the local
// sampler's measurements, maintains per-task CPI and CPU-usage
// history, runs the detector, and — when a task goes anomalous and the
// per-machine analysis rate limit allows — ranks suspects and lets the
// enforcer act. It is the component labelled "agent" in Figure 6,
// minus the transport (package agent adds that).
type Manager struct {
	params   Params
	machine  string
	detector *Detector
	enforcer *Enforcer
	// identifier ranks suspects each analysis round (Params.Identifier
	// selects it). identifierForget is non-nil when the identifier
	// keeps per-task state that must drop on task exit.
	identifier       Identifier
	identifierForget func(model.TaskID)
	metrics          *Metrics     // never nil; zero Metrics = uninstrumented
	events           EventSink    // never nil; nopSink = unlogged
	tracer           *trace.Store // nil = untraced

	mu           sync.Mutex
	jobs         map[model.JobName]model.Job
	cpi          map[model.TaskID]*timeseries.Series
	usage        map[model.TaskID]*timeseries.Series
	lastAnalysis time.Time
	incidents    []Incident
	maxIncidents int
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
		params:       p,
		machine:      machine,
		detector:     NewDetector(p),
		enforcer:     NewEnforcer(p, capper),
		identifier:   ident,
		metrics:      &Metrics{},
		events:       nopSink{},
		jobs:         make(map[model.JobName]model.Job),
		cpi:          make(map[model.TaskID]*timeseries.Series),
		usage:        make(map[model.TaskID]*timeseries.Series),
		maxIncidents: 4096,
	}
	if f, ok := ident.(interface{ Forget(model.TaskID) }); ok {
		m.identifierForget = f.Forget
	}
	return m
}

// SetMetrics instruments the manager (and its enforcer) with m. A nil
// m disables instrumentation. The field write is locked — Observe and
// analyse read m.metrics under m.mu from the agent's tick goroutine,
// so the setter must not race them.
func (m *Manager) SetMetrics(mm *Metrics) {
	if mm == nil {
		mm = &Metrics{}
	}
	m.mu.Lock()
	m.metrics = mm
	m.mu.Unlock()
	m.enforcer.SetMetrics(mm)
}

// SetEvents directs the manager's (and its enforcer's) structured
// forensics events — incidents and cap lifecycle — to sink. A nil
// sink disables event logging. Locked for the same reason as
// SetMetrics.
func (m *Manager) SetEvents(sink EventSink) {
	if sink == nil {
		sink = nopSink{}
	}
	m.mu.Lock()
	m.events = sink
	m.mu.Unlock()
	m.enforcer.SetEvents(sink)
}

// SetTrace directs the manager's causal spans (detect, decision) to
// store. Nil disables tracing (the default). Locked like SetMetrics —
// Observe/analyse snapshot the field under m.mu.
func (m *Manager) SetTrace(store *trace.Store) {
	m.mu.Lock()
	m.tracer = store
	m.mu.Unlock()
}

// RegisterJob installs job metadata for tasks on this machine. The
// cluster scheduler calls this when placing a task.
func (m *Manager) RegisterJob(j model.Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[j.Name] = j
}

// UpdateSpec forwards a pushed CPI spec to the local detector.
func (m *Manager) UpdateSpec(s model.Spec) { m.detector.UpdateSpec(s) }

// Detector exposes the manager's detector (read-mostly; used by tests
// and by the agent for spec introspection).
func (m *Manager) Detector() *Detector { return m.detector }

// Enforcer exposes the manager's enforcer for operator tooling
// (manual capping, release-all).
func (m *Manager) Enforcer() *Enforcer { return m.enforcer }

// TaskExited clears all state for a departed task, including any
// active cap on it — an exited antagonist's cap must drop out of
// ActiveCaps (and the journal) immediately, not linger until expiry
// failing to uncap a cgroup that no longer exists.
func (m *Manager) TaskExited(task model.TaskID) {
	m.mu.Lock()
	delete(m.cpi, task)
	delete(m.usage, task)
	m.mu.Unlock()
	m.detector.Forget(task)
	if m.identifierForget != nil {
		m.identifierForget(task)
	}
	m.enforcer.TaskExited(task)
}

// SetJournal directs the enforcer's actuation records to j.
func (m *Manager) SetJournal(j CapJournal) { m.enforcer.SetJournal(j) }

// Observe ingests one CPI sample and runs the full local loop:
// record → detect → (maybe) correlate → (maybe) enforce. It returns a
// non-nil Incident when an anomaly was analysed this round.
func (m *Manager) Observe(s model.Sample) *Incident {
	m.mu.Lock()
	cs, ok := m.cpi[s.Task]
	if !ok {
		cs = timeseries.NewBounded(2*m.params.CorrelationWindow, 0)
		m.cpi[s.Task] = cs
	}
	us, ok := m.usage[s.Task]
	if !ok {
		us = timeseries.NewBounded(2*m.params.CorrelationWindow, 0)
		m.usage[s.Task] = us
	}
	_ = cs.Append(s.Timestamp, s.CPI)
	_ = us.Append(s.Timestamp, s.CPUUsage)
	metrics, tracer := m.metrics, m.tracer // snapshot under m.mu; setters may race otherwise
	m.mu.Unlock()

	a := m.detector.Observe(s)
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
	tracer.Add(trace.Span{
		TraceID:      s.TraceID,
		Stage:        trace.StageDetect,
		Machine:      m.machine,
		Key:          s.Task.String(),
		Time:         s.Timestamp,
		QueueSeconds: a.SpecAge.Seconds(),
		Detail:       fmt.Sprintf("cpi %.3f > threshold %.3f", s.CPI, a.Threshold),
	})
	return m.analyse(s, a, tracer)
}

// analyse runs one rate-limited antagonist-identification round.
func (m *Manager) analyse(s model.Sample, a Assessment, tracer *trace.Store) *Incident {
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

	victimCPI := m.cpi[s.Task]
	suspects := make([]SuspectInput, 0, len(m.usage))
	for task, usage := range m.usage {
		if task == s.Task {
			continue
		}
		in := SuspectInput{Task: task, Job: task.Job, Usage: usage}
		if j, ok := m.jobs[task.Job]; ok {
			in.Class = j.Class
			in.Priority = j.Priority
		}
		suspects = append(suspects, in)
	}
	victimJob, haveJob := m.jobs[s.Job]
	m.mu.Unlock()
	if !haveJob {
		victimJob = model.Job{Name: s.Job, Class: model.ClassLatencySensitive}
	}

	now := s.Timestamp.Add(time.Nanosecond)
	// Wall-clock reads only when the latency histogram is actually
	// wired — uninstrumented runs pay nothing for timing.
	var wallStart time.Time
	var wallSeconds float64
	timed := metrics.CorrelationSeconds != nil
	if timed {
		wallStart = time.Now()
	}
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
	if timed {
		wallSeconds = time.Since(wallStart).Seconds()
		metrics.CorrelationSeconds.Observe(wallSeconds)
	}
	decision := m.enforcer.Decide(s.Timestamp, s.Task, victimJob, ranked, m.resolveJob)

	// No individual culprit: try the group hypothesis (§4.2 future
	// work) — several tasks taking turns can hide below the threshold
	// individually while their union explains the victim's CPI.
	var group *GroupSuspect
	var groupDecisions []Decision
	if decision.Action == ActionNone && m.params.GroupDetection {
		g := FindAntagonistGroup(victimCPI, a.Threshold, suspects,
			now, m.params.CorrelationWindow, m.params.SamplingInterval, m.params.MaxGroupSize)
		if len(g.Members) >= 2 && g.Correlation >= m.params.CorrelationThreshold {
			group = &g
			groupDecisions = m.enforcer.DecideGroup(s.Timestamp, s.Task, victimJob, g, m.resolveJob)
			for _, d := range groupDecisions {
				if d.Action == ActionCap {
					decision = d // headline decision: the first group cap
					break
				}
			}
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
		Group:          group,
		GroupDecisions: groupDecisions,
		TraceID:        s.TraceID,
		Identifier:     m.identifier.Name(),
	}
	if group != nil {
		metrics.GroupDetections.Inc()
	}
	metrics.Incidents.With(decision.Action.String()).Inc()
	// Detect-to-cap reaction time: first outlier of the episode → this
	// cap decision, in simulation time.
	var reaction time.Duration
	if decision.Action == ActionCap && !a.FirstOutlierAt.IsZero() {
		if reaction = s.Timestamp.Sub(a.FirstOutlierAt); reaction >= 0 {
			metrics.DetectToCap.Observe(reaction.Seconds())
		}
	}
	detail := decision.Action.String()
	if decision.Action != ActionNone {
		detail = fmt.Sprintf("%s %s", detail, decision.Target)
	}
	tracer.Add(trace.Span{
		TraceID:      s.TraceID,
		Stage:        trace.StageDecision,
		Machine:      m.machine,
		Key:          s.Task.String(),
		Time:         s.Timestamp,
		QueueSeconds: reaction.Seconds(),
		ProcSeconds:  wallSeconds,
		Detail:       detail,
	})
	events.Emit(inc.Time, "incident", inc.Record())
	m.mu.Lock()
	m.incidents = append(m.incidents, *inc)
	if len(m.incidents) > m.maxIncidents {
		m.incidents = m.incidents[len(m.incidents)-m.maxIncidents:]
	}
	m.mu.Unlock()
	return inc
}

func (m *Manager) resolveJob(name model.JobName) (model.Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[name]
	return j, ok
}

// Tick expires caps; call once per simulated second (or wall second).
func (m *Manager) Tick(now time.Time) []model.TaskID {
	return m.enforcer.Tick(now)
}

// Incidents returns a copy of the recorded incidents.
func (m *Manager) Incidents() []Incident {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Incident, len(m.incidents))
	copy(out, m.incidents)
	return out
}

// UsageSeries returns the recorded CPU-usage series for a task (nil
// if unknown); the experiment harness uses it for case-study plots.
func (m *Manager) UsageSeries(task model.TaskID) *timeseries.Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usage[task]
}

// CPISeries returns the recorded CPI series for a task (nil if
// unknown).
func (m *Manager) CPISeries(task model.TaskID) *timeseries.Series {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cpi[task]
}
