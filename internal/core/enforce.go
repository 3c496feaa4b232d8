package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/model"
)

// This file is the §5 policy the manager enforces: prefer
// latency-sensitive jobs over batch; cap only throttleable (batch)
// antagonists, at 0.01 CPU-sec/sec for best-effort and 0.1 for other
// batch, for CapDuration; expire caps; and optionally adapt quotas per
// round (FeedbackThrottling, §9). Its state — the active caps, the
// feedback rounds, the journal — is the manager's, under m.mu.

// Capper is the mechanism the manager drives: CFS bandwidth control
// on the machine (implemented by the agent over the cgroup package,
// or by an operator shim). Quota is in CPU-sec/sec.
type Capper interface {
	Cap(task model.TaskID, quota float64) error
	Uncap(task model.TaskID) error
}

// LeaseCapper is the crash-safe extension of Capper: caps carry a TTL
// lease the mechanism self-releases when it stops being renewed. The
// manager uses it when the Capper provides it (machine.Machine does);
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

// ActionType classifies what the manager decided to do.
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

// SetJournal directs actuation records to j (nil disables). Locked:
// decisions and Tick append under m.mu.
func (m *Manager) SetJournal(j CapJournal) {
	if j == nil {
		j = nopJournal{}
	}
	m.mu.Lock()
	m.journal = j
	m.mu.Unlock()
}

// JournalErrors returns the count of failed journal appends.
func (m *Manager) JournalErrors() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalErrs
}

// applyCap drives the mechanism, leasing the cap when the capper
// supports it. Callers hold m.mu.
func (m *Manager) applyCap(now time.Time, task model.TaskID, quota float64) error {
	if lc, ok := m.capper.(LeaseCapper); ok {
		return lc.CapLease(task, quota, now.Add(m.params.CapLeaseTTL))
	}
	return m.capper.Cap(task, quota)
}

// appendJournal records one actuation, counting (not propagating)
// failures. Callers hold m.mu.
func (m *Manager) appendJournal(entry CapJournalEntry) {
	if err := m.journal.Append(entry); err != nil {
		m.journalErrs++
	}
}

// capEvent is the payload of the cap lifecycle forensics events:
// cap_applied, cap_adopted, cap_expired, cap_released and cap_orphaned.
type capEvent struct {
	Task   string     `json:"task"`
	Victim string     `json:"victim,omitempty"`
	Quota  float64    `json:"quota,omitempty"`
	Until  *time.Time `json:"until,omitempty"`
	Round  int        `json:"round,omitempty"`
	Reason string     `json:"reason,omitempty"`
}

// decideLocked runs one enforcement round for an anomalous victim with
// the given ranked suspects. It picks the highest-correlated suspect
// that meets the correlation threshold and is eligible (see eligible),
// and — if the victim's job is protected and enforcement is enabled —
// caps it. Already-capped suspects are skipped: throttling an
// already-throttled task cannot help, and its reduced CPU usage will
// naturally drop it from future rankings (§5). Callers hold m.mu.
func (m *Manager) decideLocked(now time.Time, victim model.TaskID, victimJob model.Job, ranked []Suspect) Decision {
	m.lastNow = now
	var chosen *Suspect
	for i := range ranked {
		if ranked[i].Correlation < m.params.CorrelationThreshold {
			break // ranked is sorted descending; nothing below qualifies
		}
		if m.eligible(victim, ranked[i]) {
			chosen = &ranked[i]
			break
		}
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
	if m.params.ReportOnly {
		return Decision{
			Action: ActionReport,
			Target: chosen.Task,
			Reason: "auto-capping disabled; reporting for operator action",
		}
	}
	d, err := m.capLocked(now, victim, *chosen)
	if err != nil {
		return Decision{Action: ActionReport, Target: chosen.Task, Reason: fmt.Sprintf("cap failed: %v", err)}
	}
	d.Reason = fmt.Sprintf("correlation %.2f ≥ %.2f", chosen.Correlation, m.params.CorrelationThreshold)
	return d
}

// decideGroupLocked enforces against an antagonist group
// (GroupDetection): every eligible member is capped, sharing one
// expiry; latency-sensitive members are never touched. It returns one
// Decision per member acted on (capped or reported). Callers hold m.mu.
func (m *Manager) decideGroupLocked(now time.Time, victim model.TaskID, victimJob model.Job, group GroupSuspect) []Decision {
	m.lastNow = now
	var out []Decision
	for _, s := range group.Members {
		if !m.eligible(victim, s) {
			continue
		}
		if !victimJob.Protected() || m.params.ReportOnly {
			out = append(out, Decision{
				Action: ActionReport,
				Target: s.Task,
				Reason: fmt.Sprintf("group member (group corr %.2f); reporting only", group.Correlation),
			})
			continue
		}
		d, err := m.capLocked(now, victim, s)
		if err != nil {
			out = append(out, Decision{Action: ActionReport, Target: s.Task, Reason: fmt.Sprintf("group cap failed: %v", err)})
			continue
		}
		d.Reason = fmt.Sprintf("member of %d-task group, group corr %.2f", len(group.Members), group.Correlation)
		out = append(out, d)
	}
	return out
}

// eligible is the one rule for which suspects may be capped on a
// victim's behalf: not the victim itself, not already capped, and
// throttleable (§5: batch work only) by the class the suspect carries.
// Callers hold m.mu.
func (m *Manager) eligible(victim model.TaskID, s Suspect) bool {
	_, capped := m.active[s.Task]
	return s.Task != victim && !capped && model.Job{Class: s.Class}.Throttleable()
}

// capLocked is the one place a CPI² cap starts: the quota for s's
// priority and feedback round, the (leased) mechanism cap, the round,
// the active entry, the journal's cap entry, CapsApplied/CapsActive
// and the cap_applied event. A mechanism error leaves no trace. The
// returned Decision carries no Reason; callers supply it. Callers hold
// m.mu.
func (m *Manager) capLocked(now time.Time, victim model.TaskID, s Suspect) (Decision, error) {
	key := taskPair{victim: victim, suspect: s.Task}
	quota := m.quotaFor(s.Priority, m.rounds[key])
	if err := m.applyCap(now, s.Task, quota); err != nil {
		return Decision{}, err
	}
	until := now.Add(m.params.CapDuration)
	m.rounds[key]++
	round := m.rounds[key]
	m.active[s.Task] = &activeCap{task: s.Task, victim: victim, quota: quota, expires: until, round: round}
	m.caps.Store(int32(len(m.active)))
	m.appendJournal(CapJournalEntry{
		Op: CapOpCap, Time: now, Task: s.Task.String(),
		Victim: victim.String(), Quota: quota, Expires: until, Round: round,
	})
	m.metrics.CapsApplied.Inc()
	m.metrics.CapsActive.Inc()
	m.events.Emit(now, "cap_applied", capEvent{
		Task: s.Task.String(), Victim: victim.String(),
		Quota: quota, Until: &until, Round: round,
	})
	return Decision{Action: ActionCap, Target: s.Task, Quota: quota, Until: until}, nil
}

// quotaFor returns the cap quota for a suspect of the given priority:
// the Table 2 fixed values, or — with FeedbackThrottling — a quota
// that halves once for each earlier round against the same victim,
// down to the best-effort floor.
func (m *Manager) quotaFor(priority model.Priority, rounds int) float64 {
	base := m.params.BatchQuota
	if priority == model.PriorityBestEffort {
		base = m.params.BestEffortQuota
	}
	if !m.params.FeedbackThrottling {
		return base
	}
	for i := 0; i < rounds; i++ {
		base /= 2
		if base < m.params.BestEffortQuota {
			base = m.params.BestEffortQuota
			break
		}
	}
	return base
}

// Tick expires caps whose duration has elapsed, uncapping the tasks,
// and renews the leases of the rest. It returns the tasks released.
// Call it once per simulated (or wall) second, at least once per
// sampling interval. A failed Uncap leaves the cap active, so it is
// retried on every subsequent tick until the mechanism recovers.
func (m *Manager) Tick(now time.Time) []model.TaskID {
	if m.caps.Load() == 0 {
		return nil // the common tick: nothing to expire or renew
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	lc, leased := m.capper.(LeaseCapper)
	var expired []*activeCap
	for _, ac := range m.active {
		if !now.Before(ac.expires) {
			expired = append(expired, ac)
		} else if leased {
			// Renew the mechanism lease on every live cap: the lease is
			// the crash backstop, renewal is the liveness signal. If the
			// machine already swept the lease (we stalled past the TTL),
			// re-assert the cap — it is still policy until ac.expires.
			if !lc.RenewCapLease(ac.task, now.Add(m.params.CapLeaseTTL)) {
				_ = lc.CapLease(ac.task, ac.quota, now.Add(m.params.CapLeaseTTL))
			}
		}
	}
	return m.uncapLocked(now, expired, "expired")
}

// ReleaseAll removes every active cap immediately (operator action,
// or cluster-wide disable). It returns the released tasks. Journal
// entries and cap_released events are stamped with the manager's last
// decision time, the clock every other cap event uses.
func (m *Manager) ReleaseAll() []model.TaskID {
	m.mu.Lock()
	defer m.mu.Unlock()
	caps := make([]*activeCap, 0, len(m.active))
	for _, ac := range m.active {
		caps = append(caps, ac)
	}
	return m.uncapLocked(m.lastNow, caps, "released")
}

// uncapLocked drives Uncap on caps and releases each one the mechanism
// accepted, returning those tasks; a failed Uncap leaves its cap
// active. Caps are taken in task order, never map order, so caps that
// end together emit their events in the same order on every run; the
// sort runs only when there are two or more (most ticks end none).
// Callers hold m.mu.
func (m *Manager) uncapLocked(now time.Time, caps []*activeCap, reason string) []model.TaskID {
	if len(caps) > 1 {
		sort.Slice(caps, func(i, j int) bool { return caps[i].task.Compare(caps[j].task) < 0 })
	}
	var released []model.TaskID
	for _, ac := range caps {
		if err := m.capper.Uncap(ac.task); err == nil {
			released = append(released, ac.task)
			m.releaseLocked(now, ac, reason)
		}
	}
	return released
}

// releaseLocked is the one place a CPI² cap ends: it leaves the active
// set and CapsActive, and recordUncap journals and reports it. The
// mechanism side is the caller's. Callers hold m.mu.
func (m *Manager) releaseLocked(now time.Time, ac *activeCap, reason string) {
	delete(m.active, ac.task)
	m.caps.Store(int32(len(m.active)))
	m.metrics.CapsActive.Dec()
	m.recordUncap(now, ac.task, ac.victim.String(), reason)
}

// recordUncap journals the end of task's cap with its reason and
// reports it under that reason: "expired" as cap_expired, "orphaned"
// as cap_orphaned, any other ("task_exited", "released") as
// cap_released, each with its counter. Callers hold m.mu.
func (m *Manager) recordUncap(now time.Time, task model.TaskID, victim, reason string) {
	m.appendJournal(CapJournalEntry{Op: CapOpUncap, Time: now, Task: task.String(), Reason: reason})
	event, counter := "cap_released", m.metrics.CapsReleased
	switch reason {
	case "expired":
		event, counter = "cap_expired", m.metrics.CapsExpired
	case "orphaned":
		event, counter = "cap_orphaned", m.metrics.CapsOrphaned
	}
	counter.Inc()
	m.events.Emit(now, event, capEvent{Task: task.String(), Victim: victim, Reason: reason})
}

// Reconcile replays a cap journal against live mechanism state after
// a restart: caps that are still in force and unexpired are re-adopted
// (resuming their original expiry and feedback-throttling round), and
// everything else — expired entries, caps whose task vanished, caps
// the machine already swept — is released as an orphan. It returns the
// re-adopted and orphaned tasks, each in sorted order.
//
// Reconcile is for startup, after tasks are registered and before the
// first Tick or decision; already-active in-memory caps are left alone
// (a journalled cap never downgrades a live one). An agent's manager is
// reconciled through agent.Agent.Reconcile, which also ends the
// agent's idle ticks so adopted caps are renewed.
func (m *Manager) Reconcile(now time.Time, entries []CapJournalEntry) (adopted, orphaned []model.TaskID) {
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
		return caps[i].task.Compare(caps[j].task) < 0
	})

	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	checker, canCheck := m.capper.(cappedChecker)
	for _, p := range caps {
		if _, ok := m.active[p.task]; ok {
			continue // live in-memory cap wins
		}
		liveCapped := !canCheck || checker.IsCapped(p.task)
		if now.Before(p.entry.Expires) && liveCapped {
			// Re-adopt: reassert the cap (refreshing its lease) and
			// resume bookkeeping exactly where the dead agent left it.
			victim, _ := model.ParseTaskID(p.entry.Victim)
			if err := m.applyCap(now, p.task, p.entry.Quota); err != nil {
				// Mechanism refused (task raced away): orphan instead.
				m.recordUncap(now, p.task, "", "orphaned")
				orphaned = append(orphaned, p.task)
				continue
			}
			m.active[p.task] = &activeCap{
				task: p.task, victim: victim, quota: p.entry.Quota,
				expires: p.entry.Expires, round: p.entry.Round,
			}
			m.caps.Store(int32(len(m.active)))
			key := taskPair{victim: victim, suspect: p.task}
			if p.entry.Victim != "" && m.rounds[key] < p.entry.Round {
				m.rounds[key] = p.entry.Round
			}
			m.metrics.CapsAdopted.Inc()
			m.metrics.CapsActive.Inc()
			until := p.entry.Expires
			m.events.Emit(now, "cap_adopted", capEvent{
				Task: p.task.String(), Victim: p.entry.Victim,
				Quota: p.entry.Quota, Until: &until, Round: p.entry.Round,
			})
			adopted = append(adopted, p.task)
			continue
		}
		if liveCapped {
			_ = m.capper.Uncap(p.task) // best effort; the lease sweep backstops failure
		}
		m.recordUncap(now, p.task, "", "orphaned")
		orphaned = append(orphaned, p.task)
	}
	return adopted, orphaned
}

// CapsInForce returns how many caps are active, without the lock.
func (m *Manager) CapsInForce() int { return int(m.caps.Load()) }

// ActiveCaps returns the currently capped tasks and their quotas.
func (m *Manager) ActiveCaps() map[model.TaskID]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[model.TaskID]float64, len(m.active))
	for t, c := range m.active {
		out[t] = c.quota
	}
	return out
}
