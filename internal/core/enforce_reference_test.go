package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// referenceEnforcer is the §5 cap policy as a type of its own, with its
// caps, rounds, journal, metrics, event sink and clock under a mutex of
// their own: the reference the manager's cap paths must match decision
// for decision, entry for entry and event for event.
type referenceEnforcer struct {
	params  Params
	capper  Capper
	metrics *Metrics
	events  EventSink

	mu          sync.Mutex
	journal     CapJournal
	active      map[model.TaskID]*activeCap
	rounds      map[taskPair]int
	lastNow     time.Time
	journalErrs int64
}

func newReferenceEnforcer(p Params, capper Capper, metrics *Metrics, events EventSink, journal CapJournal) *referenceEnforcer {
	return &referenceEnforcer{
		params:  p.Sanitize(),
		capper:  capper,
		metrics: metrics,
		events:  events,
		journal: journal,
		active:  make(map[model.TaskID]*activeCap),
		rounds:  make(map[taskPair]int),
	}
}

func (e *referenceEnforcer) JournalErrors() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.journalErrs
}

func (e *referenceEnforcer) applyCap(now time.Time, task model.TaskID, quota float64) error {
	if lc, ok := e.capper.(LeaseCapper); ok {
		return lc.CapLease(task, quota, now.Add(e.params.CapLeaseTTL))
	}
	return e.capper.Cap(task, quota)
}

func (e *referenceEnforcer) appendJournal(entry CapJournalEntry) {
	if err := e.journal.Append(entry); err != nil {
		e.journalErrs++
	}
}

func (e *referenceEnforcer) Decide(now time.Time, victim model.TaskID, victimJob model.Job, ranked []Suspect) Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now

	var chosen *Suspect
	for i := range ranked {
		if ranked[i].Correlation < e.params.CorrelationThreshold {
			break
		}
		if e.eligible(victim, ranked[i]) {
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
	if e.params.ReportOnly {
		return Decision{
			Action: ActionReport,
			Target: chosen.Task,
			Reason: "auto-capping disabled; reporting for operator action",
		}
	}
	d, err := e.capLocked(now, victim, *chosen)
	if err != nil {
		return Decision{Action: ActionReport, Target: chosen.Task, Reason: fmt.Sprintf("cap failed: %v", err)}
	}
	d.Reason = fmt.Sprintf("correlation %.2f ≥ %.2f", chosen.Correlation, e.params.CorrelationThreshold)
	return d
}

func (e *referenceEnforcer) DecideGroup(now time.Time, victim model.TaskID, victimJob model.Job, group GroupSuspect) []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	var out []Decision
	for _, s := range group.Members {
		if !e.eligible(victim, s) {
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
		d, err := e.capLocked(now, victim, s)
		if err != nil {
			out = append(out, Decision{Action: ActionReport, Target: s.Task, Reason: fmt.Sprintf("group cap failed: %v", err)})
			continue
		}
		d.Reason = fmt.Sprintf("member of %d-task group, group corr %.2f", len(group.Members), group.Correlation)
		out = append(out, d)
	}
	return out
}

func (e *referenceEnforcer) eligible(victim model.TaskID, s Suspect) bool {
	_, capped := e.active[s.Task]
	return s.Task != victim && !capped && model.Job{Class: s.Class}.Throttleable()
}

func (e *referenceEnforcer) capLocked(now time.Time, victim model.TaskID, s Suspect) (Decision, error) {
	key := taskPair{victim: victim, suspect: s.Task}
	quota := e.quotaFor(s.Priority, e.rounds[key])
	if err := e.applyCap(now, s.Task, quota); err != nil {
		return Decision{}, err
	}
	until := now.Add(e.params.CapDuration)
	e.rounds[key]++
	round := e.rounds[key]
	e.active[s.Task] = &activeCap{task: s.Task, victim: victim, quota: quota, expires: until, round: round}
	e.appendJournal(CapJournalEntry{
		Op: CapOpCap, Time: now, Task: s.Task.String(),
		Victim: victim.String(), Quota: quota, Expires: until, Round: round,
	})
	e.metrics.CapsApplied.Inc()
	e.metrics.CapsActive.Inc()
	e.events.Emit(now, "cap_applied", capEvent{
		Task: s.Task.String(), Victim: victim.String(),
		Quota: quota, Until: &until, Round: round,
	})
	return Decision{Action: ActionCap, Target: s.Task, Quota: quota, Until: until}, nil
}

func (e *referenceEnforcer) quotaFor(priority model.Priority, rounds int) float64 {
	base := e.params.BatchQuota
	if priority == model.PriorityBestEffort {
		base = e.params.BestEffortQuota
	}
	if !e.params.FeedbackThrottling {
		return base
	}
	for i := 0; i < rounds; i++ {
		base /= 2
		if base < e.params.BestEffortQuota {
			base = e.params.BestEffortQuota
			break
		}
	}
	return base
}

func (e *referenceEnforcer) Tick(now time.Time) []model.TaskID {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	if len(e.active) == 0 {
		return nil
	}
	lc, leased := e.capper.(LeaseCapper)
	var expired []*activeCap
	for _, ac := range e.active {
		if !now.Before(ac.expires) {
			expired = append(expired, ac)
		} else if leased {
			if !lc.RenewCapLease(ac.task, now.Add(e.params.CapLeaseTTL)) {
				_ = lc.CapLease(ac.task, ac.quota, now.Add(e.params.CapLeaseTTL))
			}
		}
	}
	return e.uncapLocked(now, expired, "expired")
}

func (e *referenceEnforcer) TaskExited(task model.TaskID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ac, ok := e.active[task]; ok {
		e.releaseLocked(e.lastNow, ac, "task_exited")
	}
}

func (e *referenceEnforcer) ReleaseAll() []model.TaskID {
	e.mu.Lock()
	defer e.mu.Unlock()
	caps := make([]*activeCap, 0, len(e.active))
	for _, ac := range e.active {
		caps = append(caps, ac)
	}
	return e.uncapLocked(e.lastNow, caps, "released")
}

func (e *referenceEnforcer) uncapLocked(now time.Time, caps []*activeCap, reason string) []model.TaskID {
	if len(caps) > 1 {
		sort.Slice(caps, func(i, j int) bool { return caps[i].task.Compare(caps[j].task) < 0 })
	}
	var released []model.TaskID
	for _, ac := range caps {
		if err := e.capper.Uncap(ac.task); err == nil {
			released = append(released, ac.task)
			e.releaseLocked(now, ac, reason)
		}
	}
	return released
}

func (e *referenceEnforcer) releaseLocked(now time.Time, ac *activeCap, reason string) {
	delete(e.active, ac.task)
	e.metrics.CapsActive.Dec()
	e.recordUncap(now, ac.task, ac.victim.String(), reason)
}

func (e *referenceEnforcer) recordUncap(now time.Time, task model.TaskID, victim, reason string) {
	e.appendJournal(CapJournalEntry{Op: CapOpUncap, Time: now, Task: task.String(), Reason: reason})
	event, counter := "cap_released", e.metrics.CapsReleased
	switch reason {
	case "expired":
		event, counter = "cap_expired", e.metrics.CapsExpired
	case "orphaned":
		event, counter = "cap_orphaned", e.metrics.CapsOrphaned
	}
	counter.Inc()
	e.events.Emit(now, event, capEvent{Task: task.String(), Victim: victim, Reason: reason})
}

func (e *referenceEnforcer) Reconcile(now time.Time, entries []CapJournalEntry) (adopted, orphaned []model.TaskID) {
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

	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastNow = now
	checker, canCheck := e.capper.(cappedChecker)
	for _, p := range caps {
		if _, ok := e.active[p.task]; ok {
			continue
		}
		liveCapped := !canCheck || checker.IsCapped(p.task)
		if now.Before(p.entry.Expires) && liveCapped {
			victim, _ := model.ParseTaskID(p.entry.Victim)
			if err := e.applyCap(now, p.task, p.entry.Quota); err != nil {
				e.recordUncap(now, p.task, "", "orphaned")
				orphaned = append(orphaned, p.task)
				continue
			}
			e.active[p.task] = &activeCap{
				task: p.task, victim: victim, quota: p.entry.Quota,
				expires: p.entry.Expires, round: p.entry.Round,
			}
			key := taskPair{victim: victim, suspect: p.task}
			if p.entry.Victim != "" && e.rounds[key] < p.entry.Round {
				e.rounds[key] = p.entry.Round
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
		if liveCapped {
			_ = e.capper.Uncap(p.task)
		}
		e.recordUncap(now, p.task, "", "orphaned")
		orphaned = append(orphaned, p.task)
	}
	return adopted, orphaned
}

func (e *referenceEnforcer) ActiveCaps() map[model.TaskID]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[model.TaskID]float64, len(e.active))
	for t, c := range e.active {
		out[t] = c.quota
	}
	return out
}

// flakyCapper is a plain cap mechanism that fails one Cap or Uncap in
// six, and every call on an exited task, and logs each call it gets.
// Whether a call fails is a hash of the seed, the call and how often
// it was made before, not of the order calls come in (Tick renews
// leases in map order), so two flakyCappers on one seed that get the
// same calls fail the same ones.
type flakyCapper struct {
	seed   int64
	leased bool
	caps   map[model.TaskID]float64
	leases map[model.TaskID]time.Time
	gone   map[model.TaskID]bool
	made   map[string]int
	calls  []string
	// uncapFails counts the Uncaps that failed.
	uncapFails int
}

func newFlakyCapper(seed int64, leased bool) *flakyCapper {
	return &flakyCapper{
		seed:   seed,
		leased: leased,
		caps:   make(map[model.TaskID]float64),
		leases: make(map[model.TaskID]time.Time),
		gone:   make(map[model.TaskID]bool),
		made:   make(map[string]int),
	}
}

var errFlaky = errors.New("mechanism failed")

// fail logs call, made on task, and says whether it fails.
func (f *flakyCapper) fail(task model.TaskID, call string) bool {
	f.calls = append(f.calls, call)
	f.made[call]++
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %s %d", f.seed, call, f.made[call])
	return f.gone[task] || h.Sum64()%6 == 0
}

func (f *flakyCapper) Cap(task model.TaskID, quota float64) error {
	if f.fail(task, fmt.Sprintf("cap %v %g", task, quota)) {
		return errFlaky
	}
	f.caps[task] = quota
	delete(f.leases, task)
	return nil
}

func (f *flakyCapper) Uncap(task model.TaskID) error {
	if f.fail(task, fmt.Sprintf("uncap %v", task)) {
		f.uncapFails++
		return errFlaky
	}
	delete(f.caps, task)
	delete(f.leases, task)
	return nil
}

// sweep drops the leases that expired by now, as the machine's lease
// sweep does.
func (f *flakyCapper) sweep(now time.Time) {
	for task, exp := range f.leases {
		if !now.Before(exp) {
			delete(f.caps, task)
			delete(f.leases, task)
		}
	}
}

// leasedCapper is flakyCapper with the lease surface and IsCapped of
// machine.Machine.
type leasedCapper struct{ *flakyCapper }

func (f leasedCapper) CapLease(task model.TaskID, quota float64, expires time.Time) error {
	if f.fail(task, fmt.Sprintf("caplease %v %g %v", task, quota, expires)) {
		return errFlaky
	}
	f.caps[task] = quota
	f.leases[task] = expires
	return nil
}

func (f leasedCapper) RenewCapLease(task model.TaskID, expires time.Time) bool {
	f.calls = append(f.calls, fmt.Sprintf("renew %v %v", task, expires))
	if _, ok := f.leases[task]; !ok || f.gone[task] {
		return false
	}
	f.leases[task] = expires
	return true
}

func (f leasedCapper) IsCapped(task model.TaskID) bool {
	_, ok := f.caps[task]
	return ok && !f.gone[task]
}

// mechanism is the Capper a policy drives: leased or plain.
func (f *flakyCapper) mechanism() Capper {
	if f.leased {
		return leasedCapper{f}
	}
	return f
}

// flakyJournal is a MemCapJournal whose appends fail, and are lost, at
// random from a seeded stream.
type flakyJournal struct {
	MemCapJournal
	rng *rand.Rand
}

func (j *flakyJournal) Append(e CapJournalEntry) error {
	if j.rng.Intn(10) == 0 {
		return errors.New("disk full")
	}
	return j.MemCapJournal.Append(e)
}

// emitted is one event as a sink received it.
type emitted struct {
	now  time.Time
	typ  string
	data any
}

type eventList struct{ evs []emitted }

func (l *eventList) Emit(now time.Time, typ string, data any) {
	l.evs = append(l.evs, emitted{now, typ, data})
}

// capSide is one side of the differential test: a cap policy and what
// it drives and writes to.
type capSide struct {
	capper  *flakyCapper
	journal *flakyJournal
	events  *eventList
	metrics *Metrics
}

func newCapSide(seed int64, leased bool) *capSide {
	return &capSide{
		capper:  newFlakyCapper(seed, leased),
		journal: &flakyJournal{rng: rand.New(rand.NewSource(seed + 1))},
		events:  &eventList{},
		metrics: NewMetrics(obs.NewRegistry()),
	}
}

func (s *capSide) capMetrics() [6]float64 {
	m := s.metrics
	return [6]float64{
		m.CapsApplied.Value(), m.CapsExpired.Value(), m.CapsReleased.Value(),
		m.CapsActive.Value(), m.CapsAdopted.Value(), m.CapsOrphaned.Value(),
	}
}

// TestManagerCapsMatchEnforcer drives a manager and the reference
// enforcer through the same seeded sequences — decisions and group
// decisions for protected and unprotected victims, ticks across
// expiries, task exits, reconciliation of journals, restarts and
// operator release — over a mechanism that fails some Caps and Uncaps,
// leased and plain, with FeedbackThrottling and ReportOnly each on and
// off. After every step the two must agree on the result, the active
// caps, the journal and its error count, the events, the cap metrics
// and the calls made on the mechanism.
func TestManagerCapsMatchEnforcer(t *testing.T) {
	seen := map[string]int{}
	for _, leased := range []bool{false, true} {
		for _, feedback := range []bool{false, true} {
			for _, reportOnly := range []bool{false, true} {
				for seed := int64(1); seed <= 8; seed++ {
					p := DefaultParams()
					p.FeedbackThrottling, p.ReportOnly = feedback, reportOnly
					name := fmt.Sprintf("leased=%v feedback=%v reportOnly=%v seed=%d", leased, feedback, reportOnly, seed)
					diffCaps(t, name, p, seed, leased, seen)
				}
			}
		}
	}
	// The sequences must reach every case they are meant to cover.
	for _, c := range []string{
		"cap", "report", "none", "group cap", "group report", "cap failed",
		"expired", "uncap failed", "exit released", "adopted", "orphaned", "released", "journal error",
	} {
		if seen[c] == 0 {
			t.Errorf("no %q in the sequences", c)
		}
	}
}

// The differential test's jobs: victims are protected two times in
// three; suspects are batch, best-effort, latency-sensitive or a victim.
var (
	diffJobs = map[model.JobName]model.Job{
		"search":    victimJob,
		"batchv":    {Name: "batchv", Class: model.ClassBatch, Priority: model.PriorityBatch}, // not protected
		"mapreduce": {Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch},
		"bg-scan":   {Name: "bg-scan", Class: model.ClassBatch, Priority: model.PriorityBestEffort},
		"bigtable":  {Name: "bigtable", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction},
	}
	diffVictims  = []model.JobName{"search", "search", "batchv"}
	diffSuspects = []model.JobName{"mapreduce", "bg-scan", "bigtable", "batchv", "search"}
)

// diffCaps runs one seeded sequence of 300 steps on a manager and the
// reference enforcer, failing at the first step they disagree on, and
// counts the cases it reached in seen.
func diffCaps(t *testing.T, name string, p Params, seed int64, leased bool, seen map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs, ms := newCapSide(seed, leased), newCapSide(seed, leased)
	var ref *referenceEnforcer
	var m *Manager
	start := func() {
		ref = newReferenceEnforcer(p, rs.capper.mechanism(), rs.metrics, rs.events, rs.journal)
		m = NewManager("m", p, ms.capper.mechanism())
		m.SetMetrics(ms.metrics)
		m.SetEvents(ms.events)
		m.SetJournal(ms.journal)
	}
	start()
	task := func() model.TaskID {
		job := diffSuspects[rng.Intn(len(diffSuspects))]
		return model.TaskID{Job: job, Index: rng.Intn(3)}
	}
	suspect := func() Suspect {
		id := task()
		j := diffJobs[id.Job]
		return Suspect{Task: id, Job: id.Job, Class: j.Class, Priority: j.Priority, Correlation: rng.Float64()}
	}
	// Journal, events and calls only grow: each step compares what it
	// added.
	now, entries, events, calls := day0, 0, 0, 0
	for step := 0; step < 300; step++ {
		var op string
		var want, got any
		if rng.Intn(2) == 0 {
			// Decisions land between ticks, at sample times.
			now = now.Add(time.Duration(rng.Intn(30)) * time.Second)
		}
		switch r := rng.Intn(100); {
		case r < 35:
			op = "decide"
			victim := model.TaskID{Job: diffVictims[rng.Intn(len(diffVictims))], Index: rng.Intn(2)}
			ranked := make([]Suspect, 1+rng.Intn(4))
			for i := range ranked {
				ranked[i] = suspect()
			}
			sort.Slice(ranked, func(i, j int) bool { return ranked[i].Correlation > ranked[j].Correlation })
			d := ref.Decide(now, victim, diffJobs[victim.Job], append([]Suspect(nil), ranked...))
			want, got = d, decide(m, now, victim, diffJobs[victim.Job], ranked)
			switch {
			case d.Action == ActionCap:
				seen["cap"]++
			case d.Action == ActionNone:
				seen["none"]++
			case strings.HasPrefix(d.Reason, "cap failed"):
				seen["cap failed"]++
			default:
				seen["report"]++
			}
		case r < 45:
			op = "decide group"
			victim := model.TaskID{Job: diffVictims[rng.Intn(len(diffVictims))], Index: rng.Intn(2)}
			g := GroupSuspect{Correlation: 0.35 + 0.6*rng.Float64()}
			for i := 2 + rng.Intn(3); i > 0; i-- {
				g.Members = append(g.Members, suspect())
			}
			ds := ref.DecideGroup(now, victim, diffJobs[victim.Job], g)
			want, got = ds, decideGroup(m, now, victim, diffJobs[victim.Job], g)
			for _, d := range ds {
				if d.Action == ActionCap {
					seen["group cap"]++
				} else {
					seen["group report"]++
				}
			}
		case r < 75:
			op = "tick"
			if rng.Intn(3) == 0 {
				now = now.Add(p.CapDuration + time.Duration(rng.Intn(60))*time.Second)
			} else {
				now = now.Add(time.Duration(1+rng.Intn(90)) * time.Second)
			}
			if leased && rng.Intn(4) == 0 {
				rs.capper.sweep(now)
				ms.capper.sweep(now)
			}
			rel := ref.Tick(now)
			want, got = rel, m.Tick(now)
			seen["expired"] += len(rel)
		case r < 85:
			op = "task exit"
			id := task()
			if rng.Intn(2) == 0 {
				rs.capper.gone[id], ms.capper.gone[id] = true, true
			} else {
				delete(rs.capper.gone, id)
				delete(ms.capper.gone, id)
			}
			if _, capped := ref.ActiveCaps()[id]; capped {
				seen["exit released"]++
			}
			ref.TaskExited(id)
			m.TaskExited(id)
		case r < 93:
			op = "reconcile"
			entries := []CapJournalEntry{{Op: "bogus", Task: "?"}}
			for i := rng.Intn(4); i > 0; i-- {
				id := task()
				e := CapJournalEntry{Op: CapOpCap, Time: now, Task: id.String(), Quota: 0.1,
					Expires: now.Add(time.Duration(rng.Intn(600)-300) * time.Second), Round: rng.Intn(3)}
				if rng.Intn(3) > 0 {
					e.Victim = model.TaskID{Job: "search", Index: rng.Intn(2)}.String()
				}
				if rng.Intn(4) == 0 {
					e = CapJournalEntry{Op: CapOpUncap, Time: now, Task: id.String(), Reason: "expired"}
				}
				entries = append(entries, e)
			}
			if rng.Intn(2) == 0 {
				// A restart: fresh state over the same mechanism, journal,
				// metrics and sink, reconciling what the journal holds.
				op = "restart"
				start()
				entries = append(entries, rs.journal.Entries()...)
			}
			ad, or := ref.Reconcile(now, entries)
			gotAd, gotOr := m.Reconcile(now, entries)
			want, got = [2][]model.TaskID{ad, or}, [2][]model.TaskID{gotAd, gotOr}
			seen["adopted"] += len(ad)
			seen["orphaned"] += len(or)
		default:
			op = "release all"
			rel := ref.ReleaseAll()
			want, got = rel, m.ReleaseAll()
			seen["released"] += len(rel)
		}
		where := fmt.Sprintf("%s step %d (%s)", name, step, op)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: manager %+v, reference %+v", where, got, want)
		}
		if g, w := m.ActiveCaps(), ref.ActiveCaps(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: active caps: manager %v, reference %v", where, g, w)
		}
		g, w := ms.journal.Entries(), rs.journal.Entries()
		if len(g) != len(w) || !reflect.DeepEqual(g[entries:], w[entries:]) {
			t.Fatalf("%s: journal:\nmanager   %+v\nreference %+v", where, g[entries:], w[entries:])
		}
		entries = len(w)
		if g, w := m.JournalErrors(), ref.JournalErrors(); g != w {
			t.Fatalf("%s: journal errors: manager %d, reference %d", where, g, w)
		}
		if g, w := ms.events.evs, rs.events.evs; len(g) != len(w) || !reflect.DeepEqual(g[events:], w[events:]) {
			t.Fatalf("%s: events:\nmanager   %+v\nreference %+v", where, g[events:], w[events:])
		}
		events = len(rs.events.evs)
		if g, w := ms.capMetrics(), rs.capMetrics(); g != w {
			t.Fatalf("%s: cap metrics (applied, expired, released, active, adopted, orphaned): manager %v, reference %v", where, g, w)
		}
		// A step's calls are compared as a set: Tick renews leases in
		// map order on both sides.
		gotCalls, wantCalls := ms.capper.calls[calls:], rs.capper.calls[calls:]
		slices.Sort(gotCalls)
		slices.Sort(wantCalls)
		if !slices.Equal(gotCalls, wantCalls) {
			t.Fatalf("%s: mechanism calls:\nmanager   %v\nreference %v", where, gotCalls, wantCalls)
		}
		calls = len(rs.capper.calls)
	}
	seen["journal error"] += int(ref.JournalErrors())
	seen["uncap failed"] += rs.capper.uncapFails
}
