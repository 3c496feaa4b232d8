package agent

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

func journalEntry(task string, at time.Time) core.CapJournalEntry {
	return core.CapJournalEntry{
		Op: core.CapOpCap, Time: at, Task: task, Victim: "search/0",
		Quota: 0.1, Expires: at.Add(5 * time.Minute), Round: 1,
	}
}

func TestFileCapJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caps.journal")
	j, recovered, torn, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || torn != 0 {
		t.Fatalf("fresh journal: recovered=%d torn=%d", len(recovered), torn)
	}
	e1 := journalEntry("mr/0", t0)
	e2 := core.CapJournalEntry{Op: core.CapOpUncap, Time: t0.Add(time.Minute), Task: "mr/0", Reason: "expired"}
	e3 := journalEntry("mr/1", t0.Add(2*time.Minute))
	for _, e := range []core.CapJournalEntry{e1, e2, e3} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(e1); err == nil {
		t.Error("append after close should fail")
	}

	j2, recovered, torn, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 0 || len(recovered) != 3 {
		t.Fatalf("recovered=%d torn=%d", len(recovered), torn)
	}
	if recovered[0].Task != "mr/0" || recovered[1].Reason != "expired" || recovered[2].Task != "mr/1" {
		t.Errorf("recovered = %+v", recovered)
	}
	live, _ := core.ReplayCapEntries(recovered)
	if len(live) != 1 {
		t.Errorf("live caps = %d, want 1 (mr/1)", len(live))
	}
}

func TestFileCapJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caps.journal")
	j, _, _, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalEntry("mr/0", t0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a torn, non-JSON trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"cap","task":"mr/9","quo`)
	f.Close()

	j2, recovered, torn, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 1 {
		t.Errorf("torn = %d, want 1", torn)
	}
	if len(recovered) != 1 || recovered[0].Task != "mr/0" {
		t.Errorf("recovered = %+v, want the intact prefix only", recovered)
	}
	// The journal stays appendable after recovery.
	if err := j2.Append(journalEntry("mr/1", t0.Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
}

func TestFileCapJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caps.journal")
	j, _, _, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cap/uncap churn on many tasks, two caps left live at the end.
	for i := 0; i < 20; i++ {
		task := model.TaskID{Job: "mr", Index: i % 4}.String()
		if err := j.Append(journalEntry(task, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
		if i%4 >= 2 { // tasks 2,3 always get uncapped again
			if err := j.Append(core.CapJournalEntry{Op: core.CapOpUncap, Time: t0, Task: task}); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.mu.Lock()
	err = j.compactLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Len(); n != 2 {
		t.Errorf("entries after compaction = %d, want 2 live caps", n)
	}
	// Post-compaction appends land after the compacted prefix.
	if err := j.Append(journalEntry("mr/7", t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recovered, torn, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Errorf("torn = %d after compaction", torn)
	}
	live, invalid := core.ReplayCapEntries(recovered)
	if invalid != 0 || len(live) != 3 {
		t.Errorf("replay: live=%d invalid=%d (entries %+v)", len(live), invalid, recovered)
	}
}

// TestAgentJournalRestartReconciliation is the agent-level crash-safety
// property: an agent that journals its caps and then dies is replaced
// by one that replays the journal and re-adopts the live cap without
// re-detecting — zero enforcement gap — while journal entries for
// vanished tasks are released as orphans.
func TestAgentJournalRestartReconciliation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "caps.journal")
	a, m, _ := newRig(t, nil)
	j, _, _, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Manager().SetJournal(j)
	installSearchSpec(a)
	aid := model.TaskID{Job: "mr", Index: 0}
	if err := m.AddTask(aid, antagonistProfile(), &workload.Steady{CPU: 5, Threads: 40}); err != nil {
		t.Fatal(err)
	}
	a.RegisterTask(aid, mrJob)

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
	j.Close() // crash: agent gone, journal on disk, cgroup cap leased

	// Restart: recover the journal, rebuild the agent over the same
	// machine, reconcile before the first tick.
	j2, recovered, torn, err := OpenCapJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 0 || len(recovered) == 0 {
		t.Fatalf("recovered=%d torn=%d", len(recovered), torn)
	}
	a2 := New(m, core.DefaultParams(), nil)
	a2.Manager().SetJournal(j2)
	for _, id := range m.Tasks() {
		a2.RegisterTask(id, rigJobs[id.Job])
	}
	installSearchSpec(a2)
	adopted, orphaned := a2.Reconcile(now, recovered)
	if len(adopted) != 1 || adopted[0] != aid {
		t.Fatalf("adopted = %v, want [%v] (orphaned %v)", adopted, aid, orphaned)
	}
	if len(orphaned) != 0 {
		t.Errorf("orphaned = %v", orphaned)
	}
	if !m.IsCapped(aid) {
		t.Fatal("cap lost across restart")
	}
	if caps := a2.Manager().ActiveCaps(); len(caps) != 1 {
		t.Fatalf("ActiveCaps after reconcile = %v", caps)
	}

	// The adopted cap keeps being renewed and expires on schedule —
	// within CapDuration of its original application, not of restart.
	expireBy := now.Add(core.DefaultParams().CapDuration + time.Minute)
	for !now.After(expireBy) && m.IsCapped(aid) {
		m.Tick(now, time.Second)
		a2.Tick(now)
		now = now.Add(time.Second)
	}
	if m.IsCapped(aid) {
		t.Error("adopted cap never expired")
	}

	// A journal mentioning a vanished task orphans it instead of
	// resurrecting the cap.
	ghost := journalEntry("ghost/0", now)
	ghost.Expires = now.Add(time.Hour)
	adopted, orphaned = a2.Reconcile(now, []core.CapJournalEntry{ghost})
	if len(adopted) != 0 || len(orphaned) != 1 {
		t.Errorf("ghost reconcile: adopted=%v orphaned=%v", adopted, orphaned)
	}
}
