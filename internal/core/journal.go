package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
)

// Cap-journal operations. The journal is the manager's write-ahead
// record of actuation: every cap and uncap decision is appended before
// (caps) or as (uncaps) the mechanism is driven, so a restarted agent
// can reconstruct which caps it owns and reconcile them against live
// cgroup state instead of stranding or forgetting them.
const (
	// CapOpCap records a cap being applied (or re-adopted).
	CapOpCap = "cap"
	// CapOpUncap records a cap being removed, for any reason (expiry,
	// operator release, task exit, orphan cleanup).
	CapOpUncap = "uncap"
)

// CapJournalEntry is one actuation record. Task is the TaskID string
// form ("job/index") so entries serialize stably; Victim, Quota,
// Expires, and Round carry enough context to resume the cap exactly —
// same expiry, same feedback-throttling round — after a restart.
type CapJournalEntry struct {
	Op      string    `json:"op"`
	Time    time.Time `json:"time"`
	Task    string    `json:"task"`
	Victim  string    `json:"victim,omitempty"`
	Quota   float64   `json:"quota,omitempty"`
	Expires time.Time `json:"expires,omitempty"`
	Round   int       `json:"round,omitempty"`
	// Reason annotates uncaps: "expired", "released", "task_exited",
	// "orphaned".
	Reason string `json:"reason,omitempty"`
}

// Validate checks an entry for structural sanity; replay rejects
// invalid entries instead of resurrecting garbage caps from a
// corrupted journal.
func (e CapJournalEntry) Validate() error {
	switch e.Op {
	case CapOpCap:
		if e.Quota <= 0 || math.IsNaN(e.Quota) || math.IsInf(e.Quota, 0) {
			return fmt.Errorf("core: journal cap with bad quota %g", e.Quota)
		}
		if e.Expires.IsZero() {
			return fmt.Errorf("core: journal cap without expiry")
		}
	case CapOpUncap:
		// No extra fields required.
	default:
		return fmt.Errorf("core: unknown journal op %q", e.Op)
	}
	if _, err := model.ParseTaskID(e.Task); err != nil {
		return fmt.Errorf("core: journal entry: %w", err)
	}
	return nil
}

// CapJournal is the append-only sink for actuation records. Append
// must be durable before the caller proceeds (file implementations
// fsync); errors are surfaced so the manager can count write
// failures, but enforcement itself never blocks on a broken journal —
// losing the journal degrades restart reconciliation, not safety,
// because cgroup leases still bound every cap's lifetime.
type CapJournal interface {
	Append(e CapJournalEntry) error
}

// nopJournal is the default (journalling disabled).
type nopJournal struct{}

func (nopJournal) Append(CapJournalEntry) error { return nil }

// CapJournalFoldAt is the entry count at which a MemCapJournal folds,
// so a journal stays bounded however long its machine churns caps.
const CapJournalFoldAt = 4096

// MemCapJournal is an in-memory CapJournal: the cluster simulator
// attaches one per machine so restart faults can replay it, and tests
// inspect it directly.
type MemCapJournal struct {
	mu      sync.Mutex
	entries []CapJournalEntry
}

// Append implements CapJournal, folding the journal once it holds
// CapJournalFoldAt entries.
func (j *MemCapJournal) Append(e CapJournalEntry) error {
	j.mu.Lock()
	j.entries = append(j.entries, e)
	full := len(j.entries) >= CapJournalFoldAt
	j.mu.Unlock()
	if full {
		j.Fold()
	}
	return nil
}

// Fold replaces the journal by its live caps (ReplayCapEntries), one
// entry per task sorted by task.
func (j *MemCapJournal) Fold() {
	j.mu.Lock()
	defer j.mu.Unlock()
	live, _ := ReplayCapEntries(j.entries)
	j.entries = make([]CapJournalEntry, 0, len(live))
	for _, e := range live {
		j.entries = append(j.entries, e)
	}
	slices.SortFunc(j.entries, func(a, b CapJournalEntry) int { return strings.Compare(a.Task, b.Task) })
}

// Entries returns a copy of the journal contents, oldest first.
func (j *MemCapJournal) Entries() []CapJournalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]CapJournalEntry, len(j.entries))
	copy(out, j.entries)
	return out
}

// Len returns the number of entries held (a fold keeps the live caps).
func (j *MemCapJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// ReplayCapEntries folds a journal (oldest first) down to the set of
// caps that should still be in force: the last cap for each task not
// followed by an uncap. Invalid entries are skipped and counted — a
// torn or corrupted record must never resurrect a cap.
func ReplayCapEntries(entries []CapJournalEntry) (live map[model.TaskID]CapJournalEntry, invalid int) {
	live = make(map[model.TaskID]CapJournalEntry)
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			invalid++
			continue
		}
		task, _ := model.ParseTaskID(e.Task) // Validate already parsed it
		switch e.Op {
		case CapOpCap:
			live[task] = e
		case CapOpUncap:
			delete(live, task)
		}
	}
	return live, invalid
}
