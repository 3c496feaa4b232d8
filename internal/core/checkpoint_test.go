package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// TestCheckpointRoundTripIdenticalSpecs is the acceptance check for
// aggregator restart: kill the builder mid-interval, restore from the
// checkpoint, finish the interval — the published specs must be
// byte-identical to an uninterrupted run.
func TestCheckpointRoundTripIdenticalSpecs(t *testing.T) {
	p := DefaultParams()
	uninterrupted := NewSpecBuilder(p)
	restarted := NewSpecBuilder(p)

	// Day 1 on both, recomputed: history now carries age-weighted state.
	feedSamples(t, uninterrupted, "search", model.PlatformA, 10, 120, 1.0, 0.1, 40)
	feedSamples(t, restarted, "search", model.PlatformA, 10, 120, 1.0, 0.1, 40)
	feedSamples(t, uninterrupted, "batch", model.PlatformB, 8, 150, 2.0, 0.3, 41)
	feedSamples(t, restarted, "batch", model.PlatformB, 8, 150, 2.0, 0.3, 41)
	day1 := day0.Add(24 * time.Hour)
	uninterrupted.Recompute(day1)
	restarted.Recompute(day1)

	// Half of day 2 lands, then the "restarted" aggregator dies: its
	// state survives only via the checkpoint.
	feedSamples(t, uninterrupted, "search", model.PlatformA, 10, 60, 1.1, 0.1, 42)
	feedSamples(t, restarted, "search", model.PlatformA, 10, 60, 1.1, 0.1, 42)
	cp := restarted.Checkpoint(day1.Add(12 * time.Hour))

	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Checkpoint
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	restarted = NewSpecBuilder(p) // fresh process
	if err := restarted.ImportCheckpoint(loaded); err != nil {
		t.Fatal(err)
	}

	// Rest of day 2 on both, then recompute.
	feedSamples(t, uninterrupted, "search", model.PlatformA, 10, 60, 1.2, 0.1, 43)
	feedSamples(t, restarted, "search", model.PlatformA, 10, 60, 1.2, 0.1, 43)
	day2 := day1.Add(24 * time.Hour)
	sa := uninterrupted.Recompute(day2)
	sb := restarted.Recompute(day2)

	ja, _ := json.Marshal(sa)
	jb, _ := json.Marshal(sb)
	if string(ja) != string(jb) {
		t.Errorf("specs diverge after restore:\nuninterrupted: %s\nrestarted:     %s", ja, jb)
	}
	if len(sa) == 0 {
		t.Fatal("no specs published; test is vacuous")
	}
	// And the next day must stay in lockstep too (history fully carried).
	day3 := day2.Add(24 * time.Hour)
	ja, _ = json.Marshal(uninterrupted.Recompute(day3))
	jb, _ = json.Marshal(restarted.Recompute(day3))
	if string(ja) != string(jb) {
		t.Errorf("specs diverge one interval after restore:\n%s\nvs\n%s", ja, jb)
	}
}

func TestCheckpointSaveLoadAtomic(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	feedSamples(t, b, "jobA", model.PlatformA, 6, 120, 0.9, 0.05, 50)
	b.Recompute(day0)
	feedSamples(t, b, "jobA", model.PlatformA, 6, 30, 0.95, 0.05, 51)
	cp := b.Checkpoint(day0.Add(25 * time.Hour))

	dir := t.TempDir()
	path := filepath.Join(dir, "aggregator.checkpoint")
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// Overwrite must replace, not append/corrupt.
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, loaded) {
		t.Errorf("checkpoint changed across save/load:\nsaved:  %+v\nloaded: %+v", cp, loaded)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after save, want 1 (temp files must be cleaned up)", len(entries))
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Error("loading a missing checkpoint must fail")
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("{truncated"), 0o644)
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Error("loading corrupt JSON must fail")
	}
}

func TestCheckpointRestoreRejectsInvalid(t *testing.T) {
	valid := func() Checkpoint {
		b := NewSpecBuilder(DefaultParams())
		feedSamples(t, b, "j", model.PlatformA, 6, 120, 1.0, 0.1, 60)
		b.Recompute(day0)
		feedSamples(t, b, "j", model.PlatformA, 6, 10, 1.0, 0.1, 61)
		return b.Checkpoint(day0.Add(time.Hour))
	}
	cases := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"bad version", func(cp *Checkpoint) { cp.Version = 99 }},
		{"nan history mean", func(cp *Checkpoint) { cp.History[0].Mean = math.NaN() }},
		{"inf history variance", func(cp *Checkpoint) { cp.History[0].Variance = math.Inf(1) }},
		{"negative weight", func(cp *Checkpoint) { cp.History[0].Weight = -1 }},
		{"empty history job", func(cp *Checkpoint) { cp.History[0].Job = "" }},
		{"duplicate history key", func(cp *Checkpoint) { cp.History = append(cp.History, cp.History[0]) }},
		{"nan pending moments", func(cp *Checkpoint) { cp.Pending[0].CPI.Mean = math.NaN() }},
		{"negative pending m2", func(cp *Checkpoint) { cp.Pending[0].CPI.M2 = -4 }},
		{"duplicate pending key", func(cp *Checkpoint) { cp.Pending = append(cp.Pending, cp.Pending[0]) }},
		{"negative task samples", func(cp *Checkpoint) { cp.Pending[0].Tasks[0].Samples = -1 }},
		{"nan spec", func(cp *Checkpoint) { cp.Specs[0].CPIMean = math.NaN() }},
		{"duplicate spec key", func(cp *Checkpoint) { cp.Specs = append(cp.Specs, cp.Specs[0]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := valid()
			tc.mutate(&cp)
			b := NewSpecBuilder(DefaultParams())
			feedSamples(t, b, "keep", model.PlatformB, 6, 120, 1.5, 0.1, 62)
			if err := b.ImportCheckpoint(cp); err == nil {
				t.Fatal("invalid checkpoint accepted")
			}
			// Failed restore must leave prior state untouched.
			if got := b.PendingSamples(model.SpecKey{Job: "keep", Platform: model.PlatformB}); got != 720 {
				t.Errorf("builder state clobbered by failed restore: pending = %d", got)
			}
		})
	}
}

// FuzzCheckpointRestore throws arbitrary bytes at the restore path, a
// parse then ImportCheckpoint into a fresh builder: whatever the input,
// no panic, and a successful restore must yield a builder whose own
// checkpoint re-marshals cleanly.
func FuzzCheckpointRestore(f *testing.F) {
	b := NewSpecBuilder(DefaultParams())
	for task := 0; task < 6; task++ {
		for i := 0; i < 120; i++ {
			b.AddSample(model.Sample{
				Job: "seed", Task: model.TaskID{Job: "seed", Index: task},
				Platform: model.PlatformA, Timestamp: day0, CPUUsage: 1, CPI: 1.2,
			})
		}
	}
	b.Recompute(day0)
	seed, _ := json.Marshal(b.Checkpoint(day0.Add(time.Hour)))
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"history":[{"job":"x","weight":1e308,"variance":1e308}]}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		nb := NewSpecBuilder(DefaultParams())
		if err := nb.ImportCheckpoint(cp); err != nil {
			return
		}
		// A restored builder must stay serviceable.
		nb.Recompute(day0.Add(48 * time.Hour))
		if _, err := json.Marshal(nb.Checkpoint(day0.Add(49 * time.Hour))); err != nil {
			t.Fatalf("re-checkpoint failed: %v", err)
		}
	})
}
