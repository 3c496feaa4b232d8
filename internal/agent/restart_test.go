package agent

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestAgentRestartRecovers: agents keep all detection state in memory
// (flag histories, usage series, active caps), so a daemon restart
// loses it. The design property is graceful degradation: after a
// restart with re-pushed specs, the new agent re-learns within one
// violation window and caps the antagonist again — no persistent
// state needed (the paper's design keeps machines autonomous).
func TestAgentRestartRecovers(t *testing.T) {
	a, m, _ := newRig(t, nil)
	installSearchSpec(a)
	aid := model.TaskID{Job: "mr", Index: 0}
	if err := m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40}); err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(aid, mrJob)

	// Old agent detects and caps.
	now := t0
	var capped bool
	for s := 0; s < 900 && !capped; s++ {
		m.Tick(now, time.Second)
		a.Tick(now)
		capped = m.IsCapped(aid)
		now = now.Add(time.Second)
	}
	if !capped {
		t.Fatal("first agent never capped")
	}

	// Daemon restart: a fresh agent takes over the same machine. The
	// stale cap it no longer tracks is released (the real agent clears
	// caps it does not own at startup), specs are re-pushed by the
	// aggregator, and the machine's tasks re-registered under their
	// jobs.
	_ = m.Uncap(aid)
	a2 := New(m, core.DefaultParams(), nil)
	for _, id := range m.Tasks() {
		a2.RegisterTask(id, rigJobs[id.Job])
	}
	installSearchSpec(a2)

	recapped := false
	start := now
	for s := 0; s < 900 && !recapped; s++ {
		m.Tick(now, time.Second)
		a2.Tick(now)
		recapped = m.IsCapped(aid)
		now = now.Add(time.Second)
	}
	if !recapped {
		t.Fatal("restarted agent never re-detected the antagonist")
	}
	// Re-detection needs ≥3 minutes of fresh violations plus a sample
	// cadence — well under 15 minutes.
	if d := now.Sub(start); d > 15*time.Minute {
		t.Errorf("recovery took %v", d)
	}
}
