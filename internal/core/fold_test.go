package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// randomFoldBatch draws one batch the way a hostile and a well-behaved
// agent together might fill it: runs of one key interleaved with other
// keys, repeated tasks, tasks of a foreign job, sparse, negative and
// huge indexes, and unfoldable samples — often in first position.
func randomFoldBatch(rng *rand.Rand, n int) []model.Sample {
	jobs := []model.JobName{"websearch", "bigtable", "logproc"}
	platforms := []model.Platform{model.PlatformA, model.PlatformB}
	indexes := []int{0, 1, 2, 3, taskPageLen - 1, taskPageLen, 1000, maxDenseTask - 1, maxDenseTask, -1, -7, 1 << 40}
	out := make([]model.Sample, 0, n)
	job, pl := jobs[0], platforms[0]
	for len(out) < n {
		if rng.Intn(4) == 0 { // start a new run
			job, pl = jobs[rng.Intn(len(jobs))], platforms[rng.Intn(len(platforms))]
		}
		s := model.Sample{
			Job:       job,
			Task:      model.TaskID{Job: job, Index: indexes[rng.Intn(len(indexes))]},
			Platform:  pl,
			Timestamp: day0.Add(time.Duration(rng.Intn(7200)) * time.Second),
			CPUUsage:  rng.Float64() * 4,
			CPI:       0.5 + rng.ExpFloat64(),
			Machine:   "m0",
		}
		if rng.Intn(3) == 0 {
			s.Task.Index = rng.Intn(300)
		}
		if rng.Intn(10) == 0 {
			s.Task.Job = "someone-else"
		}
		if rng.Intn(8) == 0 || len(out) == 0 && rng.Intn(2) == 0 {
			switch rng.Intn(5) {
			case 0:
				s.CPI = 0
			case 1:
				s.CPI = -1
			case 2:
				s.Timestamp = time.Time{}
			case 3:
				s.Platform = ""
			case 4:
				s.Machine = "deny" // refused by the test's admit filter
			}
		}
		out = append(out, s)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchFoldMatchesOneAtATime is the differential property behind
// the batch fold: whatever the batch boundaries, AddBatch leaves the
// builder exactly where one AddSample per admitted sample leaves it —
// specs, checkpoint bytes, handoff frame, and the next interval after a
// restore — and the per-task counts are those of the TaskID-keyed map
// the paged counters replaced.
func TestBatchFoldMatchesOneAtATime(t *testing.T) {
	admit := func(s *model.Sample) bool { return s.Machine != "deny" }
	for trial := int64(0); trial < 30; trial++ {
		rng := rand.New(rand.NewSource(4100 + trial))
		batched := NewSpecBuilder(Params{MinSamplesPerTask: 1, MinTasks: 1})
		single := NewSpecBuilder(Params{MinSamplesPerTask: 1, MinTasks: 1})
		wantTasks := map[model.SpecKey]map[model.TaskID]int64{}
		for interval := 0; interval < 2; interval++ {
			for nb := 0; nb < 12; nb++ {
				// Sizes on both sides of foldChunkLen, and empty batches.
				batch := randomFoldBatch(rng, rng.Intn(3*foldChunkLen))
				wantFolded, wantFirst := 0, -1
				for i, s := range batch {
					if !admit(&batch[i]) {
						continue
					}
					if err := single.AddSample(s); err != nil {
						continue
					}
					if wantFirst < 0 {
						wantFirst = i
					}
					wantFolded++
					key := model.SpecKey{Job: s.Job, Platform: s.Platform}
					if wantTasks[key] == nil {
						wantTasks[key] = map[model.TaskID]int64{}
					}
					wantTasks[key][s.Task]++
				}
				folded, first := batched.AddBatch(batch, admit, nil)
				if folded != wantFolded || first != wantFirst {
					t.Fatalf("trial %d: AddBatch = (%d, %d), one at a time (%d, %d)", trial, folded, first, wantFolded, wantFirst)
				}
			}
			at := day0.Add(time.Duration(interval+1) * 24 * time.Hour)
			if interval == 0 {
				// Mid-interval: the pending task counts are in the frame.
				cp := batched.Checkpoint(at)
				if !bytes.Equal(mustJSON(t, cp), mustJSON(t, single.Checkpoint(at))) {
					t.Fatalf("trial %d: checkpoint bytes differ", trial)
				}
				for _, p := range cp.Pending {
					want := wantTasks[model.SpecKey{Job: p.Job, Platform: p.Platform}]
					got := map[model.TaskID]int64{}
					for _, ct := range p.Tasks {
						got[ct.Task] = ct.Samples
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: %s/%s task counts = %v, want %v", trial, p.Job, p.Platform, got, want)
					}
					if !sort.SliceIsSorted(p.Tasks, func(i, j int) bool { return p.Tasks[i].Task.String() < p.Tasks[j].Task.String() }) {
						t.Fatalf("trial %d: %s/%s tasks not in Task.String() order", trial, p.Job, p.Platform)
					}
				}
				// Checkpoint → JSON → restore → the rest of the run.
				var decoded Checkpoint
				if err := json.Unmarshal(mustJSON(t, cp), &decoded); err != nil {
					t.Fatal(err)
				}
				restored := NewSpecBuilder(Params{MinSamplesPerTask: 1, MinTasks: 1})
				if err := restored.ImportCheckpoint(decoded); err != nil {
					t.Fatalf("trial %d: restore: %v", trial, err)
				}
				if !bytes.Equal(mustJSON(t, restored.Checkpoint(at)), mustJSON(t, cp)) {
					t.Fatalf("trial %d: checkpoint does not survive a restore", trial)
				}
				batched = restored
				wantTasks = map[model.SpecKey]map[model.TaskID]int64{}
			}
			if !reflect.DeepEqual(batched.Recompute(at), single.Recompute(at)) {
				t.Fatalf("trial %d: robust specs differ after interval %d", trial, interval)
			}
			if !reflect.DeepEqual(batched.Specs(), single.Specs()) {
				t.Fatalf("trial %d: spec tables differ after interval %d", trial, interval)
			}
		}
		for key, tasks := range wantTasks {
			if spec, _ := batched.Spec(key); spec.NumTasks != len(tasks) {
				t.Fatalf("trial %d: %s NumTasks = %d, want %d", trial, key, spec.NumTasks, len(tasks))
			}
		}
		at := day0.Add(72 * time.Hour)
		if !bytes.Equal(mustJSON(t, batched.ExportKeys(batched.Keys(), at)), mustJSON(t, single.ExportKeys(single.Keys(), at))) {
			t.Fatalf("trial %d: handoff frames differ", trial)
		}
	}
}

// TestFoldRefusesAllocFreeWithSentinels: a refused sample costs the
// builder no allocation — a flood of them must not be an allocation
// storm — and AddSample names the reason with a sentinel.
func TestFoldRefusesAllocFreeWithSentinels(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	good := model.Sample{Job: "j", Task: model.TaskID{Job: "j"}, Platform: model.PlatformA, Timestamp: day0, CPUUsage: 1, CPI: 1}
	cases := []struct {
		mutate func(*model.Sample)
		want   error
	}{
		{func(s *model.Sample) { s.Job = "" }, ErrSampleIncomplete},
		{func(s *model.Sample) { s.Platform = "" }, ErrSampleIncomplete},
		{func(s *model.Sample) { s.Timestamp = time.Time{} }, ErrSampleIncomplete},
		{func(s *model.Sample) { s.CPUUsage = -1 }, ErrSampleNegative},
		{func(s *model.Sample) { s.CPI = -0.5 }, ErrSampleNegative},
		{func(s *model.Sample) { s.CPI = 0 }, ErrSampleZeroCPI},
	}
	for i, tc := range cases {
		bad := good
		tc.mutate(&bad)
		if err := b.AddSample(bad); !errors.Is(err, tc.want) {
			t.Errorf("case %d: AddSample = %v, want %v", i, err, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = b.AddSample(bad) }); allocs != 0 {
			t.Errorf("case %d: a refused sample costs %v allocations, want 0", i, allocs)
		}
	}
	if err := b.AddSample(good); err != nil {
		t.Errorf("good sample refused: %v", err)
	}
	if got := b.PendingSamples(model.SpecKey{Job: "j", Platform: model.PlatformA}); got != 1 {
		t.Errorf("pending = %d, want 1 (refused samples must not be folded)", got)
	}
}

// TestHostileTaskIndexMemoryBudget: whatever Task.Index a sample
// carries, folding it allocates a bounded amount — the page table plus
// one page at most — and it is still counted as one task.
func TestHostileTaskIndexMemoryBudget(t *testing.T) {
	const perSampleLimit = 32 << 10 // page table is 8 KiB, a page 512 B
	indexes := []int{-1, -1 << 62, 1 << 40, 1<<62 + 12345, maxDenseTask, maxDenseTask - 1}
	b := NewSpecBuilder(Params{MinSamplesPerTask: 1, MinTasks: 1})
	key := model.SpecKey{Job: "victim", Platform: model.PlatformA}
	// The key exists before the measurement, so the aggregate and its
	// map entry are not part of it.
	warm := model.Sample{Job: key.Job, Task: model.TaskID{Job: key.Job}, Platform: key.Platform, Timestamp: day0, CPUUsage: 1, CPI: 1}
	if err := b.AddSample(warm); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	for _, idx := range indexes {
		s := warm
		s.Task.Index = idx
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ { // repeats must not allocate again
			if err := b.AddSample(s); err != nil {
				t.Fatalf("index %d refused: %v", idx, err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > perSampleLimit {
			t.Errorf("index %d: fold allocated %d bytes, limit %d", idx, got, perSampleLimit)
		}
	}
	b.Recompute(day0.Add(time.Hour))
	if spec, _ := b.Spec(key); spec.NumTasks != len(indexes)+1 || spec.NumSamples != int64(3*len(indexes)+1) {
		t.Errorf("spec = %d tasks / %d samples, want %d / %d", spec.NumTasks, spec.NumSamples, len(indexes)+1, 3*len(indexes)+1)
	}
}

// TestKeyMemoFoldsMatch: folding a stream through two interleaved
// connection memos leaves a builder exactly where AddSample and the
// memo-less AddBatch leave it, while keys move under the memos: every
// Recompute, keys handed off and back (ExportKeys, a newcomer key taking
// the freed slots, ImportCheckpoint) and a key whose history dies and
// which then comes back. A memo entry that outlived its slot would fold
// into another key's, and the checkpoints would part.
func TestKeyMemoFoldsMatch(t *testing.T) {
	admit := func(s *model.Sample) bool { return s.Machine != "deny" }
	params := Params{MinSamplesPerTask: 1, MinTasks: 1, AgeWeight: 0.5}
	const ephemeral = model.JobName("ephemeral")
	for trial := int64(0); trial < 10; trial++ {
		rng := rand.New(rand.NewSource(8800 + trial))
		single, plain, memoed := NewSpecBuilder(params), NewSpecBuilder(params), NewSpecBuilder(params)
		var memos [2]KeyMemo
		batches := 0
		at := day0
		fold := func(batch []model.Sample) {
			for i := range batch {
				if admit(&batch[i]) {
					_ = single.AddSample(batch[i])
				}
			}
			plain.AddBatch(batch, admit, nil)
			memoed.AddBatch(batch, admit, &memos[batches%2])
			batches++
		}
		check := func(round int, step string) {
			t.Helper()
			want, wantSpecs := mustJSON(t, single.Checkpoint(at)), single.Specs()
			for name, b := range map[string]*SpecBuilder{"AddBatch": plain, "memo": memoed} {
				if got := mustJSON(t, b.Checkpoint(at)); !bytes.Equal(got, want) {
					t.Fatalf("trial %d round %d after %s: %s checkpoint differs: %s", trial, round, step, name, jsonDiff(got, want))
				}
				if got := b.Specs(); !reflect.DeepEqual(got, wantSpecs) {
					t.Fatalf("trial %d round %d after %s: %s specs differ", trial, round, step, name)
				}
			}
		}
		hasEphemeral := func() bool {
			for _, k := range single.Keys() {
				if k.Job == ephemeral {
					return true
				}
			}
			return false
		}
		for round := 0; round < 8; round++ {
			for nb := 0; nb < 10; nb++ {
				batch := randomFoldBatch(rng, 1+rng.Intn(2*foldChunkLen))
				for i := range batch {
					s := &batch[i]
					if (round == 0 || round == 5) && nb == 0 && i < 2 { // dies two idle recomputes on
						s.Job, s.Task.Job, s.Platform, s.Machine = ephemeral, ephemeral, model.PlatformA, "m0"
						s.Timestamp, s.CPI = at.Add(time.Minute), 1.5
					}
					if nb%4 == 3 { // the same names at new addresses
						s.Job = model.JobName(strings.Clone(string(s.Job)))
						s.Platform = model.Platform(strings.Clone(string(s.Platform)))
					}
				}
				fold(batch)
			}
			check(round, "fold")
			if round%2 == 1 {
				keys := single.Keys()
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				keys = keys[:len(keys)/2]
				var frames [3]Checkpoint
				for i, b := range []*SpecBuilder{single, plain, memoed} {
					frames[i] = b.ExportKeys(keys, at)
				}
				if a, b, c := mustJSON(t, frames[0]), mustJSON(t, frames[1]), mustJSON(t, frames[2]); !bytes.Equal(a, b) || !bytes.Equal(a, c) {
					t.Fatalf("trial %d round %d: handoff frames differ", trial, round)
				}
				newcomer := model.JobName(fmt.Sprintf("newcomer-%d", round))
				var batch []model.Sample
				for i := 0; i < 2*len(keys); i++ {
					pl := []model.Platform{model.PlatformA, model.PlatformB}[i%2]
					job := newcomer + model.JobName(fmt.Sprint(i/2))
					batch = append(batch, model.Sample{Job: job, Task: model.TaskID{Job: job, Index: i}, Platform: pl,
						Timestamp: at.Add(time.Duration(i) * time.Second), CPUUsage: 1, CPI: 1 + float64(i)/10})
				}
				fold(batch)
				for i, b := range []*SpecBuilder{single, plain, memoed} {
					if err := b.ImportCheckpoint(frames[i]); err != nil {
						t.Fatalf("trial %d round %d: import back: %v", trial, round, err)
					}
				}
				check(round, "handoff")
			}
			at = at.Add(24 * time.Hour)
			robust := [3][]model.Spec{single.Recompute(at), plain.Recompute(at), memoed.Recompute(at)}
			if !reflect.DeepEqual(robust[0], robust[1]) || !reflect.DeepEqual(robust[0], robust[2]) {
				t.Fatalf("trial %d round %d: robust specs differ", trial, round)
			}
			check(round, "recompute")
			switch {
			case round == 0 && !hasEphemeral():
				t.Fatalf("trial %d: the ephemeral key never arrived", trial)
			case round == 4 && hasEphemeral():
				t.Fatalf("trial %d: the ephemeral key's history did not die", trial)
			case round == 5 && !hasEphemeral():
				t.Fatalf("trial %d: the ephemeral key did not come back", trial)
			}
		}
	}
}

// jsonDiff shows where got first departs from want.
func jsonDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-60)
	return fmt.Sprintf("at byte %d: …%s… want …%s…", i, got[from:min(len(got), i+60)], want[from:min(len(want), i+60)])
}
