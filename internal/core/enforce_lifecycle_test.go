package core

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// recordSink captures emitted events in order, for asserting the
// cap policy's deterministic emission contract.
type recordSink struct {
	types   []string
	tasks   []string
	reasons []string
}

func (r *recordSink) Emit(_ time.Time, typ string, data any) {
	r.types = append(r.types, typ)
	if ce, ok := data.(capEvent); ok {
		r.tasks = append(r.tasks, ce.Task)
		r.reasons = append(r.reasons, ce.Reason)
	}
}

// capTwo puts two caps (batchTask, beTask) in force at day0 with the
// default 5-minute duration.
func capTwo(t *testing.T, m *Manager) {
	t.Helper()
	ranked := []Suspect{
		{Task: batchTask, Job: "mapreduce", Correlation: 0.6},
		{Task: beTask, Job: "bg-scan", Correlation: 0.5},
	}
	if d := decide(m, day0, victimTask, victimJob, withJobs(ranked)); d.Action != ActionCap {
		t.Fatalf("first cap: %+v", d)
	}
	if d := decide(m, day0.Add(time.Minute), victimTask, victimJob, withJobs(ranked)); d.Action != ActionCap {
		t.Fatalf("second cap: %+v", d)
	}
}

// TestEnforcerUncapRetryUntilSuccess pins down the cap lifecycle under
// a failing Capper: an expired cap whose Uncap fails stays active and
// is retried every tick until the mechanism recovers, and the
// CapsActive gauge tracks reality the whole way.
func TestEnforcerUncapRetryUntilSuccess(t *testing.T) {
	reg := obs.NewRegistry()
	mm := NewMetrics(reg)
	capper := newFakeCapper()
	m := NewManager("m", DefaultParams(), capper)
	m.SetMetrics(mm)
	capTwo(t, m)
	if got := mm.CapsActive.Value(); got != 2 {
		t.Fatalf("CapsActive = %v, want 2", got)
	}

	// Wedge the uncap mechanism for the next 3 attempts.
	capper.mu.Lock()
	capper.failUncaps = 3
	capper.mu.Unlock()

	expiry := day0.Add(6 * time.Minute) // both caps are past due
	if released := m.Tick(expiry); len(released) != 0 {
		t.Fatalf("released %v despite Uncap failing", released)
	}
	if got := mm.CapsActive.Value(); got != 2 {
		t.Errorf("CapsActive = %v after failed uncaps, want 2", got)
	}
	if got := mm.CapsExpired.Value(); got != 0 {
		t.Errorf("CapsExpired = %v after failed uncaps, want 0", got)
	}
	if len(m.ActiveCaps()) != 2 {
		t.Errorf("active caps = %d, want 2 (failed uncap must not drop bookkeeping)", len(m.ActiveCaps()))
	}

	// Next tick: one more failure is budgeted, so exactly one of the two
	// sorted uncap attempts fails and the other succeeds.
	released := m.Tick(expiry.Add(time.Second))
	if len(released) != 1 {
		t.Fatalf("released = %v, want exactly 1", released)
	}
	if got := mm.CapsActive.Value(); got != 1 {
		t.Errorf("CapsActive = %v, want 1", got)
	}

	// Mechanism healthy again: the straggler is released on the next tick.
	released = m.Tick(expiry.Add(2 * time.Second))
	if len(released) != 1 {
		t.Fatalf("straggler not released: %v", released)
	}
	if got := mm.CapsActive.Value(); got != 0 {
		t.Errorf("CapsActive = %v at end, want 0", got)
	}
	if got := mm.CapsExpired.Value(); got != 2 {
		t.Errorf("CapsExpired = %v, want 2", got)
	}
	capper.mu.Lock()
	tried := capper.uncapTried
	capper.mu.Unlock()
	// tick1: 2 attempts (both fail); tick2: 2 attempts (1 fail, 1 ok);
	// tick3: 1 attempt (ok) — retried every tick, never dropped.
	if tried != 5 {
		t.Errorf("uncap attempts = %d, want 5 (retry every tick)", tried)
	}
}

// TestEnforcerTickEventOrderDeterministic: two caps expiring on the
// same tick must emit cap_expired events in sorted task order, never
// map order — the event-log byte-identity contract depends on it.
func TestEnforcerTickEventOrderDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		sink := &recordSink{}
		m := NewManager("m", DefaultParams(), newFakeCapper())
		m.SetEvents(sink)
		capTwo(t, m)
		released := m.Tick(day0.Add(10 * time.Minute))
		if len(released) != 2 {
			t.Fatalf("released = %v", released)
		}
		// Events: 2×cap_applied then 2×cap_expired, expiry sorted by task.
		if len(sink.tasks) != 4 {
			t.Fatalf("events = %v", sink.types)
		}
		expired := sink.tasks[2:]
		if expired[0] != beTask.String() || expired[1] != batchTask.String() {
			t.Fatalf("trial %d: cap_expired order = %v, want sorted [%s %s]",
				trial, expired, beTask, batchTask)
		}
		if released[0] != beTask || released[1] != batchTask {
			t.Fatalf("released order = %v, want sorted", released)
		}
		if got := sink.reasons[2:]; got[0] != "expired" || got[1] != "expired" {
			t.Fatalf("cap_expired reasons = %q, want the journal's \"expired\"", got)
		}
	}
}

// TestEnforcerReleaseAllOrderDeterministic mirrors the Tick ordering
// contract for operator release.
func TestEnforcerReleaseAllOrderDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		sink := &recordSink{}
		m := NewManager("m", DefaultParams(), newFakeCapper())
		m.SetEvents(sink)
		capTwo(t, m)
		released := m.ReleaseAll()
		if len(released) != 2 || released[0] != beTask || released[1] != batchTask {
			t.Fatalf("trial %d: ReleaseAll order = %v, want sorted", trial, released)
		}
		if got := sink.tasks[2:]; got[0] != beTask.String() || got[1] != batchTask.String() {
			t.Fatalf("trial %d: cap_released order = %v, want sorted", trial, got)
		}
		if got := sink.reasons[2:]; got[0] != "released" || got[1] != "released" {
			t.Fatalf("cap_released reasons = %q, want the journal's \"released\"", got)
		}
	}
}

// TestEnforcerFeedbackQuotaFloorUnderUncapFailure: even when expiries
// are delayed by a failing Capper and rounds pile up, the adaptive
// quota never escalates below the best-effort floor.
func TestEnforcerFeedbackQuotaFloorUnderUncapFailure(t *testing.T) {
	p := DefaultParams()
	p.FeedbackThrottling = true
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	ranked := []Suspect{{Task: batchTask, Job: "mapreduce", Correlation: 0.6}}
	now := day0
	for round := 0; round < 12; round++ {
		d := decide(m, now, victimTask, victimJob, withJobs(ranked))
		if d.Action != ActionCap {
			t.Fatalf("round %d: %+v", round, d)
		}
		if d.Quota < p.BestEffortQuota {
			t.Fatalf("round %d: quota %v below best-effort floor %v", round, d.Quota, p.BestEffortQuota)
		}
		// Every other round the uncap mechanism is wedged for one tick,
		// so expiry slips by a tick before the retry succeeds.
		now = now.Add(p.CapDuration)
		if round%2 == 0 {
			capper.mu.Lock()
			capper.failUncaps = 1
			capper.mu.Unlock()
			if rel := m.Tick(now); len(rel) != 0 {
				t.Fatalf("round %d: released %v through wedged capper", round, rel)
			}
			now = now.Add(time.Second)
		}
		if rel := m.Tick(now); len(rel) != 1 {
			t.Fatalf("round %d: release failed: %v", round, rel)
		}
		now = now.Add(time.Second)
	}
}
