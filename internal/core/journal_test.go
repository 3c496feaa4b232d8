package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

var j0 = time.Date(2011, 11, 1, 12, 0, 0, 0, time.UTC)

func capEntry(task string, at time.Time) CapJournalEntry {
	return CapJournalEntry{
		Op: CapOpCap, Time: at, Task: task, Victim: "search/3",
		Quota: 0.1, Expires: at.Add(5 * time.Minute), Round: 1,
	}
}

func TestCapJournalEntryValidate(t *testing.T) {
	good := capEntry("mapreduce/7", j0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CapJournalEntry)
	}{
		{"bad op", func(e *CapJournalEntry) { e.Op = "recap" }},
		{"empty op", func(e *CapJournalEntry) { e.Op = "" }},
		{"zero quota", func(e *CapJournalEntry) { e.Quota = 0 }},
		{"negative quota", func(e *CapJournalEntry) { e.Quota = -0.1 }},
		{"nan quota", func(e *CapJournalEntry) { e.Quota = math.NaN() }},
		{"inf quota", func(e *CapJournalEntry) { e.Quota = math.Inf(1) }},
		{"no expiry", func(e *CapJournalEntry) { e.Expires = time.Time{} }},
		{"bad task", func(e *CapJournalEntry) { e.Task = "not-a-task-id" }},
		{"empty task", func(e *CapJournalEntry) { e.Task = "" }},
	}
	for _, tc := range cases {
		e := good
		tc.mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Uncap entries need only a parseable task.
	u := CapJournalEntry{Op: CapOpUncap, Time: j0, Task: "mapreduce/7"}
	if err := u.Validate(); err != nil {
		t.Errorf("valid uncap rejected: %v", err)
	}
}

func TestReplayCapEntries(t *testing.T) {
	tA := model.TaskID{Job: "a", Index: 1}
	tB := model.TaskID{Job: "b", Index: 2}
	entries := []CapJournalEntry{
		capEntry("a/1", j0),
		capEntry("b/2", j0.Add(time.Minute)),
		{Op: CapOpUncap, Time: j0.Add(2 * time.Minute), Task: "a/1", Reason: "expired"},
		capEntry("a/1", j0.Add(3*time.Minute)),                      // re-capped later
		{Op: "garbage", Task: "c/3"},                                // invalid: skipped
		{Op: CapOpCap, Task: "d/4", Quota: math.NaN(), Expires: j0}, // invalid
	}
	live, invalid := ReplayCapEntries(entries)
	if invalid != 2 {
		t.Errorf("invalid = %d, want 2", invalid)
	}
	if len(live) != 2 {
		t.Fatalf("live = %d caps, want 2", len(live))
	}
	if e, ok := live[tA]; !ok || !e.Time.Equal(j0.Add(3*time.Minute)) {
		t.Errorf("a/1 entry = %+v, want the re-cap", e)
	}
	if _, ok := live[tB]; !ok {
		t.Error("b/2 missing")
	}

	// Uncap-only and empty journals fold to nothing.
	live, invalid = ReplayCapEntries([]CapJournalEntry{
		{Op: CapOpUncap, Task: "a/1"},
	})
	if len(live) != 0 || invalid != 0 {
		t.Errorf("uncap-only: live=%d invalid=%d", len(live), invalid)
	}
	live, _ = ReplayCapEntries(nil)
	if len(live) != 0 {
		t.Error("nil journal should fold to nothing")
	}
}

func TestMemCapJournal(t *testing.T) {
	j := &MemCapJournal{}
	if j.Len() != 0 {
		t.Fatal("fresh journal not empty")
	}
	e := capEntry("a/1", j0)
	if err := j.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(CapJournalEntry{Op: CapOpUncap, Time: j0, Task: "a/1"}); err != nil {
		t.Fatal(err)
	}
	got := j.Entries()
	if len(got) != 2 || got[0].Op != CapOpCap || got[1].Op != CapOpUncap {
		t.Fatalf("entries = %+v", got)
	}
	// Entries returns a copy.
	got[0].Task = "tampered/0"
	if j.Entries()[0].Task != "a/1" {
		t.Error("Entries exposed internal storage")
	}
}

// TestMemCapJournalBounded: a machine churning caps for ever keeps a
// bounded journal, and folding it loses no live cap.
func TestMemCapJournalBounded(t *testing.T) {
	j := &MemCapJournal{}
	var all []CapJournalEntry
	folds := 0
	for i := 0; i < 3*CapJournalFoldAt; i++ {
		task := model.TaskID{Job: "mr", Index: i % 37}.String()
		e := capEntry(task, j0.Add(time.Duration(i)*time.Second))
		if i%3 == 2 { // two caps, then an uncap, per task in turn
			e = CapJournalEntry{Op: CapOpUncap, Time: e.Time, Task: task, Reason: "expired"}
		}
		all = append(all, e)
		n := j.Len()
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
		if j.Len() <= n {
			folds++
		}
		if n := j.Len(); n > CapJournalFoldAt {
			t.Fatalf("after %d appends the journal holds %d entries, over %d", i+1, n, CapJournalFoldAt)
		}
	}
	if folds < 2 {
		t.Errorf("%d folds over %d appends", folds, len(all))
	}
	got, _ := ReplayCapEntries(j.Entries())
	want, _ := ReplayCapEntries(all)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("folded journal replays to %d caps, the appended entries to %d", len(got), len(want))
	}
	// A fold keeps one entry per live cap, sorted by task.
	j.Fold()
	folded := j.Entries()
	byTask := func(a, b CapJournalEntry) int { return strings.Compare(a.Task, b.Task) }
	if len(folded) != len(want) || !slices.IsSortedFunc(folded, byTask) {
		t.Errorf("folded journal = %+v, want %d live caps sorted by task", folded, len(want))
	}
}
