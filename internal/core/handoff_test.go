package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
)

// buildPopulatedBuilder seeds a builder with njobs jobs across both
// platforms, one recomputed interval of history plus half an interval
// of pending samples — the state mix a live reshard actually moves.
func buildPopulatedBuilder(t *testing.T, njobs int, seed int64) *SpecBuilder {
	t.Helper()
	b := NewSpecBuilder(DefaultParams())
	for j := 0; j < njobs; j++ {
		job := model.JobName(fmt.Sprintf("job-%02d", j))
		pl := model.PlatformA
		if j%2 == 1 {
			pl = model.PlatformB
		}
		feedSamples(t, b, job, pl, 6, 80, 1.0+0.1*float64(j), 0.1, seed+int64(j))
	}
	b.Recompute(day0.Add(24 * time.Hour))
	for j := 0; j < njobs; j++ {
		job := model.JobName(fmt.Sprintf("job-%02d", j))
		pl := model.PlatformA
		if j%2 == 1 {
			pl = model.PlatformB
		}
		feedSamples(t, b, job, pl, 6, 30, 1.05+0.1*float64(j), 0.1, seed+100+int64(j))
	}
	return b
}

// TestHandoffSpecEquivalence is the resharding correctness property:
// export a random subset of one builder's keys into a second builder,
// recompute both at the same instant, and the union of their spec
// tables must be byte-identical (Welford moments included) to the
// undisturbed builder's table — not just this interval but the next
// one too, proving history weights moved intact.
func TestHandoffSpecEquivalence(t *testing.T) {
	const njobs = 12
	for trial := int64(0); trial < 5; trial++ {
		whole := buildPopulatedBuilder(t, njobs, 7000+trial)
		donor := buildPopulatedBuilder(t, njobs, 7000+trial)
		dest := NewSpecBuilder(DefaultParams())

		keys := donor.Keys()
		if len(keys) != njobs {
			t.Fatalf("trial %d: builder holds %d keys, want %d", trial, len(keys), njobs)
		}
		rng := rand.New(rand.NewSource(900 + trial))
		var moved []model.SpecKey
		for _, k := range keys {
			if rng.Float64() < 0.5 {
				moved = append(moved, k)
			}
		}
		now := day0.Add(36 * time.Hour)
		frame := donor.ExportKeys(moved, now)
		// The frame crosses a process boundary in real resharding; prove
		// JSON round-trips it exactly.
		data, err := json.Marshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Checkpoint
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}
		if err := dest.ImportCheckpoint(decoded); err != nil {
			t.Fatal(err)
		}
		if got := len(donor.Keys()) + len(dest.Keys()); got != njobs {
			t.Fatalf("trial %d: keys split %d+%d, want %d total", trial, len(donor.Keys()), len(dest.Keys()), njobs)
		}

		recompute := day0.Add(48 * time.Hour)
		wantSpecs := whole.Recompute(recompute)
		gotSpecs := mergeSpecs(donor.Recompute(recompute), dest.Recompute(recompute))
		wantJSON, _ := json.Marshal(wantSpecs)
		gotJSON, _ := json.Marshal(gotSpecs)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("trial %d: specs diverge after handoff\nwant: %s\ngot:  %s", trial, wantJSON, gotJSON)
		}
		if len(wantSpecs) == 0 {
			t.Fatal("no specs published; test is vacuous")
		}

		// Next interval: only history decay drives the specs now.
		later := day0.Add(72 * time.Hour)
		wantJSON, _ = json.Marshal(whole.Recompute(later))
		gotJSON, _ = json.Marshal(mergeSpecs(donor.Recompute(later), dest.Recompute(later)))
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("trial %d: specs diverge one interval after handoff\nwant: %s\ngot:  %s", trial, wantJSON, gotJSON)
		}
	}
}

// mergeSpecs merges per-shard spec slices into one table sorted by
// (job, platform) — the same order a single builder publishes.
func mergeSpecs(parts ...[]model.Spec) []model.Spec {
	var out []model.Spec
	for _, p := range parts {
		out = append(out, p...)
	}
	sortSpecs(out)
	return out
}

func sortSpecs(specs []model.Spec) {
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0; j-- {
			a, b := specs[j-1], specs[j]
			if a.Job < b.Job || (a.Job == b.Job && a.Platform <= b.Platform) {
				break
			}
			specs[j-1], specs[j] = b, a
		}
	}
}

// TestHandoffImportCollisionRejected: importing a key the destination
// already holds must fail atomically — no partial merge.
func TestHandoffImportCollisionRejected(t *testing.T) {
	donor := buildPopulatedBuilder(t, 4, 1)
	dest := buildPopulatedBuilder(t, 4, 2) // same key space: every key collides
	before := dest.Checkpoint(day0)
	frame := donor.ExportKeys(donor.Keys()[:2], day0.Add(30*time.Hour))
	if err := dest.ImportCheckpoint(frame); err == nil {
		t.Fatal("import over existing keys succeeded; ownership would be split across shards")
	}
	after := dest.Checkpoint(day0)
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if string(bj) != string(aj) {
		t.Error("failed import mutated the destination builder")
	}
}

// TestHandoffExportUnknownKeys: exporting keys the builder never saw
// yields an empty frame and leaves the builder intact.
func TestHandoffExportUnknownKeys(t *testing.T) {
	b := buildPopulatedBuilder(t, 3, 5)
	n := len(b.Keys())
	cp := b.ExportKeys([]model.SpecKey{{Job: "nope", Platform: model.PlatformA}}, day0)
	if len(cp.History) != 0 || len(cp.Pending) != 0 || len(cp.Specs) != 0 {
		t.Errorf("export of unknown key carried state: %+v", cp)
	}
	if len(b.Keys()) != n {
		t.Errorf("export of unknown key shrank the builder: %d -> %d keys", n, len(b.Keys()))
	}
}

// TestHandoffImportAdoptsCadence: a fresh shard must inherit the
// donor's LastRecompute from the frame (so all shards stay on one
// recompute schedule), while a shard that already recomputed keeps its
// own clock.
func TestHandoffImportAdoptsCadence(t *testing.T) {
	donor := buildPopulatedBuilder(t, 2, 9)
	frame := donor.ExportKeys(donor.Keys()[:1], day0.Add(30*time.Hour))
	fresh := NewSpecBuilder(DefaultParams())
	if err := fresh.ImportCheckpoint(frame); err != nil {
		t.Fatal(err)
	}
	if got := fresh.LastRecompute(); !got.Equal(day0.Add(24 * time.Hour)) {
		t.Errorf("fresh importer LastRecompute = %v, want donor's %v", got, day0.Add(24*time.Hour))
	}
	veteran := NewSpecBuilder(DefaultParams())
	veteran.Recompute(day0.Add(26 * time.Hour))
	frame2 := donor.ExportKeys(donor.Keys(), day0.Add(30*time.Hour))
	if err := veteran.ImportCheckpoint(frame2); err != nil {
		t.Fatal(err)
	}
	if got := veteran.LastRecompute(); !got.Equal(day0.Add(26 * time.Hour)) {
		t.Errorf("veteran importer LastRecompute = %v, want its own %v", got, day0.Add(26*time.Hour))
	}
}

// FuzzHandoffImport throws arbitrary bytes at the handoff frame
// decoder: whatever arrives, no panic, failed imports leave the
// destination untouched, and successful ones leave it serviceable.
func FuzzHandoffImport(f *testing.F) {
	b := NewSpecBuilder(DefaultParams())
	for task := 0; task < 6; task++ {
		for i := 0; i < 90; i++ {
			b.AddSample(model.Sample{
				Job: "seed", Task: model.TaskID{Job: "seed", Index: task},
				Platform: model.PlatformA, Timestamp: day0, CPUUsage: 1, CPI: 1.1,
			})
		}
	}
	b.Recompute(day0.Add(24 * time.Hour))
	seed, _ := json.Marshal(b.ExportKeys(b.Keys(), day0.Add(25*time.Hour)))
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"pending":[{"job":"x","cpi":{"n":-1}}]}`))
	f.Add([]byte(`{"version":1,"history":[{"job":"x","weight":1},{"job":"x","weight":2}]}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		dest := NewSpecBuilder(DefaultParams())
		feedSamples(t, dest, "resident", model.PlatformB, 6, 20, 1.4, 0.1, 3)
		residentPending := dest.PendingSamples(model.SpecKey{Job: "resident", Platform: model.PlatformB})
		if err := dest.ImportCheckpoint(cp); err != nil {
			if got := dest.PendingSamples(model.SpecKey{Job: "resident", Platform: model.PlatformB}); got != residentPending {
				t.Fatalf("failed import mutated destination: pending %d -> %d", residentPending, got)
			}
			return
		}
		// Builder must stay serviceable after any accepted frame.
		dest.Recompute(day0.Add(48 * time.Hour))
		if _, err := json.Marshal(dest.Checkpoint(day0.Add(49 * time.Hour))); err != nil {
			t.Fatalf("re-checkpoint failed: %v", err)
		}
	})
}
