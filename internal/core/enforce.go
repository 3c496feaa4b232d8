package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// Capper is the mechanism the enforcer drives: CFS bandwidth control
// on the machine (implemented by the agent over the cgroup package,
// or by an operator shim). Quota is in CPU-sec/sec.
type Capper interface {
	Cap(task model.TaskID, quota float64) error
	Uncap(task model.TaskID) error
}

// LeaseCapper is the crash-safe extension of Capper: caps carry a TTL
// lease the mechanism self-releases when it stops being renewed. The
// enforcer uses it when the Capper provides it (machine.Machine does);
// plain Cappers fall back to unleased caps, losing the backstop but
// keeping the policy identical.
type LeaseCapper interface {
	Capper
	CapLease(task model.TaskID, quota float64, expires time.Time) error
	RenewCapLease(task model.TaskID, expires time.Time) bool
}

// cappedChecker lets reconciliation interrogate live mechanism state
// (machine.Machine implements it); optional for test fakes.
type cappedChecker interface {
	IsCapped(task model.TaskID) bool
}

// ActionType classifies what the enforcer decided to do.
type ActionType int

const (
	// ActionNone: no suspect met the correlation threshold, or the
	// victim is not eligible for protection.
	ActionNone ActionType = iota
	// ActionReport: an antagonist was identified but auto-capping is
	// off or the antagonist is not throttleable; the incident is
	// reported for operators.
	ActionReport
	// ActionCap: the antagonist was hard-capped.
	ActionCap
)

// String implements fmt.Stringer.
func (a ActionType) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionReport:
		return "report"
	case ActionCap:
		return "cap"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Decision is the outcome of one enforcement round.
type Decision struct {
	Action ActionType
	// Target is the chosen antagonist (zero TaskID when ActionNone).
	Target model.TaskID
	// Quota is the applied cap in CPU-sec/sec (ActionCap only).
	Quota float64
	// Until is when the cap expires (ActionCap only).
	Until time.Time
	// Reason is a human-readable explanation.
	Reason string
}

// activeCap tracks one in-force hard cap.
type activeCap struct {
	task    model.TaskID
	victim  model.TaskID
	quota   float64
	expires time.Time
	// round counts how many times this victim has triggered capping of
	// this task, for feedback throttling.
	round int
}

// Enforcer implements the §5 policy: prefer latency-sensitive jobs
// over batch; cap only throttleable (batch) antagonists, at
// 0.01 CPU-sec/sec for best-effort and 0.1 for other batch, for
// CapDuration; expire caps; and optionally adapt quotas per round
// (FeedbackThrottling, §9).
type Enforcer struct {
	params  Params
	capper  Capper
	metrics *Metrics  // never nil
	events  EventSink // never nil

	mu      sync.Mutex
	journal CapJournal // never nil; nopJournal = unjournalled
	active  map[model.TaskID]*activeCap
	// history remembers victim→task cap rounds even after expiry so
	// feedback throttling can escalate on repeat offenders.
	rounds map[string]int
	// lastNow is the most recent simulation/decision time the enforcer
	// has seen (Decide/Tick/Reconcile). Externally triggered releases
	// (TaskExited) stamp their events with it so event logs stay
	// deterministic under simulated clocks.
	lastNow time.Time
	// journalErrs counts failed journal appends; enforcement proceeds
	// regardless (leases bound the damage), but the count is surfaced
	// so a dead disk is visible.
	journalErrs int64
}

// NewEnforcer returns an enforcer applying caps through capper.
func NewEnforcer(p Params, capper Capper) *Enforcer {
	return &Enforcer{
		params:  p.Sanitize(),
		capper:  capper,
		metrics: &Metrics{},
		events:  nopSink{},
		journal: nopJournal{},
		active:  make(map[model.TaskID]*activeCap),
		rounds:  make(map[string]int),
	}
}

// SetJournal directs actuation records to j (nil disables). Locked
// like SetMetrics: Decide/Tick append under e.mu.
func (e *Enforcer) SetJournal(j CapJournal) {
	if j == nil {
		j = nopJournal{}
	}
	e.mu.Lock()
	e.journal = j
	e.mu.Unlock()
}

// JournalErrors returns the count of failed journal appends.
func (e *Enforcer) JournalErrors() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journalErrs
}

// applyCap drives the mechanism, leasing the cap when the capper
// supports it. Callers hold e.mu.
func (e *Enforcer) applyCap(now time.Time, task model.TaskID, quota float64) error {
	if lc, ok := e.capper.(LeaseCapper); ok {
		return lc.CapLease(task, quota, now.Add(e.params.CapLeaseTTL))
	}
	return e.capper.Cap(task, quota)
}

// appendJournal records one actuation, counting (not propagating)
// failures. Callers hold e.mu.
func (e *Enforcer) appendJournal(entry CapJournalEntry) {
	if err := e.journal.Append(entry); err != nil {
		e.journalErrs++
	}
}

// SetMetrics instruments the enforcer with m (nil disables). The lock
// matters: Decide/Tick read e.metrics under e.mu from agent goroutines,
// so an unlocked setter write is a data race even if callers "usually"
// instrument before traffic flows.
func (e *Enforcer) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	e.mu.Lock()
	e.metrics = m
	e.mu.Unlock()
}

// SetEvents directs cap-lifecycle events to sink (nil disables). Locked
// for the same reason as SetMetrics.
func (e *Enforcer) SetEvents(sink EventSink) {
	if sink == nil {
		sink = nopSink{}
	}
	e.mu.Lock()
	e.events = sink
	e.mu.Unlock()
}

// capEvent is the payload of cap_applied / cap_expired / cap_released
// forensics events.
type capEvent struct {
	Task   string     `json:"task"`
	Victim string     `json:"victim,omitempty"`
	Quota  float64    `json:"quota,omitempty"`
	Until  *time.Time `json:"until,omitempty"`
	Round  int        `json:"round,omitempty"`
	Reason string     `json:"reason,omitempty"`
}

// JobResolver supplies job metadata for suspects; provided by the
// caller because the enforcer itself holds no job table. When it
// returns false the enforcer falls back to the class/priority carried
// on the Suspect.
type JobResolver func(model.JobName) (model.Job, bool)

// Decide runs one enforcement round for an anomalous victim with the
// given ranked suspects. It picks the highest-correlated suspect that
// (a) meets the correlation threshold and (b) is throttleable, and —
// if the victim's job is protected and enforcement is enabled — applies a hard
// cap via the Capper. Already-capped suspects are skipped: throttling
// an already-throttled task cannot help, and its reduced CPU usage
// will naturally drop it from future rankings (§5).
func (e *Enforcer) Decide(now time.Time, victim model.TaskID, victimJob model.Job,
	ranked []Suspect, resolve JobResolver) Decision {

	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now

	// Find the best eligible antagonist.
	var chosen *Suspect
	var chosenJob model.Job
	for i := range ranked {
		s := &ranked[i]
		if s.Correlation < e.params.CorrelationThreshold {
			break // ranked is sorted descending; nothing below qualifies
		}
		if s.Task == victim {
			continue
		}
		if _, capped := e.active[s.Task]; capped {
			continue
		}
		var job model.Job
		var ok bool
		if resolve != nil {
			job, ok = resolve(s.Job)
		}
		if !ok {
			job = model.Job{Name: s.Job, Class: s.Class, Priority: s.Priority}
		}
		if !job.Throttleable() {
			continue
		}
		chosen = s
		chosenJob = job
		break
	}
	if chosen == nil {
		return Decision{Action: ActionNone, Reason: "no throttleable suspect above correlation threshold"}
	}
	if !victimJob.Protected() {
		return Decision{
			Action: ActionReport,
			Target: chosen.Task,
			Reason: fmt.Sprintf("victim %v not protection-eligible; reporting only", victim),
		}
	}
	if e.params.ReportOnly {
		return Decision{
			Action: ActionReport,
			Target: chosen.Task,
			Reason: "auto-capping disabled; reporting for operator action",
		}
	}

	quota := e.quotaFor(chosenJob, victim, chosen.Task)
	if err := e.applyCap(now, chosen.Task, quota); err != nil {
		return Decision{
			Action: ActionReport,
			Target: chosen.Task,
			Reason: fmt.Sprintf("cap failed: %v", err),
		}
	}
	until := now.Add(e.params.CapDuration)
	key := victim.String() + "→" + chosen.Task.String()
	e.rounds[key]++
	e.active[chosen.Task] = &activeCap{
		task:    chosen.Task,
		victim:  victim,
		quota:   quota,
		expires: until,
		round:   e.rounds[key],
	}
	e.appendJournal(CapJournalEntry{
		Op: CapOpCap, Time: now, Task: chosen.Task.String(),
		Victim: victim.String(), Quota: quota, Expires: until, Round: e.rounds[key],
	})
	e.metrics.CapsApplied.Inc()
	e.metrics.CapsActive.Inc()
	e.events.Emit(now, "cap_applied", capEvent{
		Task: chosen.Task.String(), Victim: victim.String(),
		Quota: quota, Until: &until, Round: e.rounds[key],
	})
	return Decision{
		Action: ActionCap,
		Target: chosen.Task,
		Quota:  quota,
		Until:  until,
		Reason: fmt.Sprintf("correlation %.2f ≥ %.2f", chosen.Correlation, e.params.CorrelationThreshold),
	}
}

// quotaFor returns the cap quota for a job: the Table 2 fixed values,
// or — with FeedbackThrottling — a quota that halves on each repeated
// round against the same victim, down to the best-effort floor.
func (e *Enforcer) quotaFor(job model.Job, victim, target model.TaskID) float64 {
	base := e.params.BatchQuota
	if job.Priority == model.PriorityBestEffort {
		base = e.params.BestEffortQuota
	}
	if !e.params.FeedbackThrottling {
		return base
	}
	round := e.rounds[victim.String()+"→"+target.String()] // rounds so far
	for i := 0; i < round; i++ {
		base /= 2
		if base < e.params.BestEffortQuota {
			base = e.params.BestEffortQuota
			break
		}
	}
	return base
}

// DecideGroup enforces against an antagonist group (GroupDetection):
// every throttleable, not-already-capped member is capped, sharing one
// expiry. The same eligibility rules as Decide apply; latency-
// sensitive members are never touched. It returns one Decision per
// member acted on (capped or reported).
func (e *Enforcer) DecideGroup(now time.Time, victim model.TaskID, victimJob model.Job,
	group GroupSuspect, resolve JobResolver) []Decision {

	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	var out []Decision
	for _, s := range group.Members {
		if s.Task == victim {
			continue
		}
		if _, capped := e.active[s.Task]; capped {
			continue
		}
		var job model.Job
		var ok bool
		if resolve != nil {
			job, ok = resolve(s.Job)
		}
		if !ok {
			job = model.Job{Name: s.Job, Class: s.Class, Priority: s.Priority}
		}
		if !job.Throttleable() {
			continue
		}
		if !victimJob.Protected() || e.params.ReportOnly {
			out = append(out, Decision{
				Action: ActionReport,
				Target: s.Task,
				Reason: fmt.Sprintf("group member (group corr %.2f); reporting only", group.Correlation),
			})
			continue
		}
		quota := e.quotaFor(job, victim, s.Task)
		if err := e.applyCap(now, s.Task, quota); err != nil {
			out = append(out, Decision{
				Action: ActionReport,
				Target: s.Task,
				Reason: fmt.Sprintf("group cap failed: %v", err),
			})
			continue
		}
		until := now.Add(e.params.CapDuration)
		key := victim.String() + "→" + s.Task.String()
		e.rounds[key]++
		e.active[s.Task] = &activeCap{
			task: s.Task, victim: victim, quota: quota, expires: until,
			round: e.rounds[key],
		}
		e.appendJournal(CapJournalEntry{
			Op: CapOpCap, Time: now, Task: s.Task.String(),
			Victim: victim.String(), Quota: quota, Expires: until, Round: e.rounds[key],
		})
		e.metrics.CapsApplied.Inc()
		e.metrics.CapsActive.Inc()
		e.events.Emit(now, "cap_applied", capEvent{
			Task: s.Task.String(), Victim: victim.String(),
			Quota: quota, Until: &until, Round: e.rounds[key],
		})
		out = append(out, Decision{
			Action: ActionCap,
			Target: s.Task,
			Quota:  quota,
			Until:  until,
			Reason: fmt.Sprintf("member of %d-task group, group corr %.2f", len(group.Members), group.Correlation),
		})
	}
	return out
}

// Tick expires caps whose duration has elapsed, uncapping the tasks.
// It returns the tasks released. Call it at least once per sampling
// interval. A failed Uncap leaves the cap active, so it is retried on
// every subsequent tick until the mechanism recovers.
//
// Expired caps are collected and sorted by task before any Uncap or
// event emission: iterating the active map directly would emit
// cap_expired events in map order, breaking event-log byte-identity
// across runs whenever two caps expire on the same tick.
func (e *Enforcer) Tick(now time.Time) []model.TaskID {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	lc, leased := e.capper.(LeaseCapper)
	var expired []*activeCap
	for _, ac := range e.active {
		if !now.Before(ac.expires) {
			expired = append(expired, ac)
		} else if leased {
			// Renew the mechanism lease on every live cap: the lease is
			// the crash backstop, renewal is the liveness signal. If the
			// machine already swept the lease (we stalled past the TTL),
			// re-assert the cap — it is still policy until ac.expires.
			if !lc.RenewCapLease(ac.task, now.Add(e.params.CapLeaseTTL)) {
				_ = lc.CapLease(ac.task, ac.quota, now.Add(e.params.CapLeaseTTL))
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		return expired[i].task.String() < expired[j].task.String()
	})
	var released []model.TaskID
	for _, ac := range expired {
		if err := e.capper.Uncap(ac.task); err == nil {
			released = append(released, ac.task)
			delete(e.active, ac.task)
			e.appendJournal(CapJournalEntry{
				Op: CapOpUncap, Time: now, Task: ac.task.String(), Reason: "expired",
			})
			e.metrics.CapsExpired.Inc()
			e.metrics.CapsActive.Dec()
			e.events.Emit(now, "cap_expired", capEvent{Task: ac.task.String(), Victim: ac.victim.String()})
		}
	}
	return released
}

// TaskExited releases the active cap on a departed task immediately,
// without driving the mechanism (the task's cgroup, and the limit on
// it, are already gone). Without this, the cap would linger in
// ActiveCaps until TTL/CapDuration expiry and its Uncap would fail
// forever against the missing group. The release is
// journalled and logged like any other; the event timestamp is the
// enforcer's last decision time, keeping simulated-clock event logs
// deterministic.
func (e *Enforcer) TaskExited(task model.TaskID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ac, ok := e.active[task]
	if !ok {
		return
	}
	delete(e.active, task)
	e.appendJournal(CapJournalEntry{
		Op: CapOpUncap, Time: e.lastNow, Task: task.String(), Reason: "task_exited",
	})
	e.metrics.CapsReleased.Inc()
	e.metrics.CapsActive.Dec()
	e.events.Emit(e.lastNow, "cap_released", capEvent{
		Task: task.String(), Victim: ac.victim.String(), Reason: "task_exited",
	})
}

// Reconcile replays a cap journal against live mechanism state after
// a restart: caps that are still in force and unexpired are re-adopted
// (resuming their original expiry and feedback-throttling round), and
// everything else — expired entries, caps whose task vanished, caps
// the machine already swept — is released as an orphan. It returns the
// re-adopted and orphaned tasks, each in sorted order.
//
// Reconcile is for startup, before the enforcer makes decisions;
// already-active in-memory caps are left alone (a journalled cap never
// downgrades a live one).
func (e *Enforcer) Reconcile(now time.Time, entries []CapJournalEntry) (adopted, orphaned []model.TaskID) {
	live, _ := ReplayCapEntries(entries)
	type pending struct {
		task  model.TaskID
		entry CapJournalEntry
	}
	caps := make([]pending, 0, len(live))
	for task, entry := range live {
		caps = append(caps, pending{task, entry})
	}
	sort.Slice(caps, func(i, j int) bool {
		return caps[i].task.String() < caps[j].task.String()
	})

	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	checker, canCheck := e.capper.(cappedChecker)
	for _, p := range caps {
		if _, ok := e.active[p.task]; ok {
			continue // live in-memory cap wins
		}
		liveCapped := !canCheck || checker.IsCapped(p.task)
		if now.Before(p.entry.Expires) && liveCapped {
			// Re-adopt: reassert the cap (refreshing its lease) and
			// resume bookkeeping exactly where the dead agent left it.
			victim, _ := model.ParseTaskID(p.entry.Victim)
			if err := e.applyCap(now, p.task, p.entry.Quota); err != nil {
				// Mechanism refused (task raced away): orphan instead.
				e.orphanLocked(now, p.task, false)
				orphaned = append(orphaned, p.task)
				continue
			}
			e.active[p.task] = &activeCap{
				task: p.task, victim: victim, quota: p.entry.Quota,
				expires: p.entry.Expires, round: p.entry.Round,
			}
			if p.entry.Round > 0 && p.entry.Victim != "" {
				key := p.entry.Victim + "→" + p.entry.Task
				if e.rounds[key] < p.entry.Round {
					e.rounds[key] = p.entry.Round
				}
			}
			e.metrics.CapsAdopted.Inc()
			e.metrics.CapsActive.Inc()
			until := p.entry.Expires
			e.events.Emit(now, "cap_adopted", capEvent{
				Task: p.task.String(), Victim: p.entry.Victim,
				Quota: p.entry.Quota, Until: &until, Round: p.entry.Round,
			})
			adopted = append(adopted, p.task)
			continue
		}
		e.orphanLocked(now, p.task, liveCapped)
		orphaned = append(orphaned, p.task)
	}
	return adopted, orphaned
}

// orphanLocked releases one journalled cap that cannot be re-adopted.
// Callers hold e.mu.
func (e *Enforcer) orphanLocked(now time.Time, task model.TaskID, liveCapped bool) {
	if liveCapped {
		_ = e.capper.Uncap(task) // best effort; the lease sweep backstops failure
	}
	e.appendJournal(CapJournalEntry{
		Op: CapOpUncap, Time: now, Task: task.String(), Reason: "orphaned",
	})
	e.metrics.CapsOrphaned.Inc()
	e.events.Emit(now, "cap_orphaned", capEvent{Task: task.String(), Reason: "orphaned"})
}

// ActiveCaps returns the currently capped tasks and their quotas.
func (e *Enforcer) ActiveCaps() map[model.TaskID]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[model.TaskID]float64, len(e.active))
	for t, c := range e.active {
		out[t] = c.quota
	}
	return out
}

// ReleaseAll removes every active cap immediately (operator action,
// or cluster-wide disable). It returns the released tasks. Like Tick,
// it uncaps and emits in sorted task order, not map order, so the
// event log is reproducible. Journal entries and cap_released events are
// stamped with the enforcer's last simulation/decision time, the clock
// every other enforcer event uses.
func (e *Enforcer) ReleaseAll() []model.TaskID {
	e.mu.Lock()
	defer e.mu.Unlock()
	caps := make([]*activeCap, 0, len(e.active))
	for _, ac := range e.active {
		caps = append(caps, ac)
	}
	sort.Slice(caps, func(i, j int) bool {
		return caps[i].task.String() < caps[j].task.String()
	})
	var released []model.TaskID
	for _, ac := range caps {
		if err := e.capper.Uncap(ac.task); err == nil {
			released = append(released, ac.task)
			delete(e.active, ac.task)
			e.appendJournal(CapJournalEntry{
				Op: CapOpUncap, Time: e.lastNow, Task: ac.task.String(), Reason: "released",
			})
			e.metrics.CapsReleased.Inc()
			e.metrics.CapsActive.Dec()
			e.events.Emit(e.lastNow, "cap_released", capEvent{Task: ac.task.String(), Victim: ac.victim.String()})
		}
	}
	return released
}
