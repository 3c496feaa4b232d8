package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
)

// CheckpointVersion is the current on-disk checkpoint format version.
// ImportCheckpoint rejects checkpoints from other versions rather than
// guessing.
const CheckpointVersion = 1

// Checkpoint is a serializable snapshot of a SpecBuilder: the
// age-weighted per-key history, the not-yet-recomputed pending
// interval, and the published specs. An aggregator that restores one
// (ImportCheckpoint on a fresh builder) resumes spec building exactly where it left off instead of
// re-entering the <MinTasks/<MinSamplesPerTask robustness gate for a
// full recompute interval.
//
// All float64 fields round-trip exactly through encoding/json
// (shortest-representation encoding), so a restore reproduces the
// builder bit-for-bit.
type Checkpoint struct {
	Version       int                 `json:"version"`
	SavedAt       time.Time           `json:"saved_at"`
	LastRecompute time.Time           `json:"last_recompute"`
	History       []CheckpointHistory `json:"history,omitempty"`
	Pending       []CheckpointPending `json:"pending,omitempty"`
	Specs         []model.Spec        `json:"specs,omitempty"`
}

// CheckpointHistory is one key's age-weighted carry-over.
type CheckpointHistory struct {
	Job       model.JobName  `json:"job"`
	Platform  model.Platform `json:"platform"`
	Weight    float64        `json:"weight"`
	Mean      float64        `json:"mean"`
	Variance  float64        `json:"variance"`
	UsageMean float64        `json:"usage_mean"`
	Tasks     int            `json:"tasks"`
}

func (h CheckpointHistory) key() model.SpecKey {
	return model.SpecKey{Job: h.Job, Platform: h.Platform}
}

// CheckpointPending is one key's in-flight (pre-recompute) interval.
type CheckpointPending struct {
	Job      model.JobName      `json:"job"`
	Platform model.Platform     `json:"platform"`
	CPI      stats.MomentsState `json:"cpi"`
	CPUUsage stats.MomentsState `json:"cpu_usage"`
	Tasks    []CheckpointTask   `json:"tasks,omitempty"`
	// Oldest/Newest bound the interval's sample timestamps (the
	// sample-to-spec SLI anchor). Absent in pre-SLI checkpoints, which
	// restore with zero bounds and simply skip the first observation.
	Oldest time.Time `json:"oldest,omitempty"`
	Newest time.Time `json:"newest,omitempty"`
}

func (p CheckpointPending) key() model.SpecKey {
	return model.SpecKey{Job: p.Job, Platform: p.Platform}
}

// CheckpointTask records a task's sample count within a pending
// interval (the robustness gate counts distinct tasks and per-task
// samples).
type CheckpointTask struct {
	Task    model.TaskID `json:"task"`
	Samples int64        `json:"samples"`
}

// Checkpoint snapshots the builder's full state, stamped with now.
// Slices are sorted by job then platform (tasks by task ID), so the
// serialized form is deterministic for identical builder state.
func (b *SpecBuilder) Checkpoint(now time.Time) Checkpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.checkpointLocked(now, nil)
}

// checkpointLocked builds a checkpoint of the keys in only (nil = all
// keys). Caller holds b.mu.
func (b *SpecBuilder) checkpointLocked(now time.Time, only map[model.SpecKey]bool) Checkpoint {
	cp := Checkpoint{
		Version:       CheckpointVersion,
		SavedAt:       now,
		LastRecompute: b.lastRecompute,
	}
	for i := range b.slots {
		s := &b.slots[i]
		key := s.key()
		if s.has == 0 || only != nil && !only[key] {
			continue
		}
		if h := &s.history; s.has&hasHistory != 0 {
			cp.History = append(cp.History, CheckpointHistory{
				Job: key.Job, Platform: key.Platform,
				Weight: h.weight, Mean: h.mean, Variance: h.variance,
				UsageMean: h.usageMean, Tasks: h.tasks,
			})
		}
		if agg := &s.pending; s.has&hasPending != 0 {
			p := CheckpointPending{
				Job: key.Job, Platform: key.Platform,
				CPI:      agg.cpi.State(),
				CPUUsage: agg.cpuUsage.State(),
				Oldest:   agg.oldest,
				Newest:   agg.newest,
			}
			agg.tasks.each(key.Job, func(task model.TaskID, n int64) {
				p.Tasks = append(p.Tasks, CheckpointTask{Task: task, Samples: n})
			})
			sort.Slice(p.Tasks, func(i, j int) bool {
				return p.Tasks[i].Task.Compare(p.Tasks[j].Task) < 0
			})
			cp.Pending = append(cp.Pending, p)
		}
		if s.has&hasSpec != 0 {
			cp.Specs = append(cp.Specs, s.spec)
		}
	}
	slices.SortFunc(cp.History, func(a, b CheckpointHistory) int { return a.key().Compare(b.key()) })
	slices.SortFunc(cp.Pending, func(a, b CheckpointPending) int { return a.key().Compare(b.key()) })
	slices.SortFunc(cp.Specs, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	return cp
}

// finite reports whether every f is a real number.
func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// parseCheckpoint validates cp defensively — version mismatch,
// non-finite moments, or negative counts are errors, never panics —
// and materializes its maps for ImportCheckpoint, the one way state
// enters a builder: a restart's checkpoint and a reshard's handoff
// frame get the same scrutiny.
func parseCheckpoint(cp Checkpoint) (map[model.SpecKey]specHistory, map[model.SpecKey]pendingAgg, map[model.SpecKey]model.Spec, error) {
	if cp.Version != CheckpointVersion {
		return nil, nil, nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	history := make(map[model.SpecKey]specHistory, len(cp.History))
	for _, h := range cp.History {
		if h.Job == "" {
			return nil, nil, nil, fmt.Errorf("core: checkpoint history entry with empty job")
		}
		if !finite(h.Weight, h.Mean, h.Variance, h.UsageMean) {
			return nil, nil, nil, fmt.Errorf("core: checkpoint history for %s/%s has non-finite moments", h.Job, h.Platform)
		}
		if h.Weight < 0 || h.Variance < 0 || h.Tasks < 0 {
			return nil, nil, nil, fmt.Errorf("core: checkpoint history for %s/%s has negative fields", h.Job, h.Platform)
		}
		key := h.key()
		if _, dup := history[key]; dup {
			return nil, nil, nil, fmt.Errorf("core: duplicate checkpoint history key %s/%s", h.Job, h.Platform)
		}
		history[key] = specHistory{
			weight: h.Weight, mean: h.Mean, variance: h.Variance,
			usageMean: h.UsageMean, tasks: h.Tasks,
		}
	}
	pending := make(map[model.SpecKey]pendingAgg, len(cp.Pending))
	for _, p := range cp.Pending {
		if p.Job == "" {
			return nil, nil, nil, fmt.Errorf("core: checkpoint pending entry with empty job")
		}
		if !finite(p.CPI.Mean, p.CPI.M2, p.CPUUsage.Mean, p.CPUUsage.M2) {
			return nil, nil, nil, fmt.Errorf("core: checkpoint pending for %s/%s has non-finite moments", p.Job, p.Platform)
		}
		if p.CPI.N < 0 || p.CPI.M2 < 0 || p.CPUUsage.N < 0 || p.CPUUsage.M2 < 0 {
			return nil, nil, nil, fmt.Errorf("core: checkpoint pending for %s/%s has negative fields", p.Job, p.Platform)
		}
		key := p.key()
		if _, dup := pending[key]; dup {
			return nil, nil, nil, fmt.Errorf("core: duplicate checkpoint pending key %s/%s", p.Job, p.Platform)
		}
		agg := pendingAgg{
			cpi:      stats.MomentsFromState(p.CPI),
			cpuUsage: stats.MomentsFromState(p.CPUUsage),
			oldest:   p.Oldest,
			newest:   p.Newest,
		}
		for _, t := range p.Tasks {
			// A counted task has at least one sample; zero would be
			// indistinguishable from a task never seen.
			if t.Samples <= 0 {
				return nil, nil, nil, fmt.Errorf("core: checkpoint pending for %s/%s: %d samples for %v", p.Job, p.Platform, t.Samples, t.Task)
			}
			if agg.tasks.add(p.Job, t.Task, t.Samples) != 0 {
				return nil, nil, nil, fmt.Errorf("core: checkpoint pending for %s/%s: duplicate task %v", p.Job, p.Platform, t.Task)
			}
		}
		pending[key] = agg
	}
	specs := make(map[model.SpecKey]model.Spec, len(cp.Specs))
	for _, s := range cp.Specs {
		if s.Job == "" {
			return nil, nil, nil, fmt.Errorf("core: checkpoint spec with empty job")
		}
		if !finite(s.CPIMean, s.CPIStddev, s.CPUUsageMean) {
			return nil, nil, nil, fmt.Errorf("core: checkpoint spec for %s/%s has non-finite fields", s.Job, s.Platform)
		}
		key := s.Key()
		if _, dup := specs[key]; dup {
			return nil, nil, nil, fmt.Errorf("core: duplicate checkpoint spec key %s/%s", s.Job, s.Platform)
		}
		specs[key] = s
	}
	return history, pending, specs, nil
}

// SaveCheckpoint writes cp to path atomically: marshal, write to a
// temp file in the same directory, fsync, rename. A crash mid-write
// leaves the previous checkpoint intact.
func SaveCheckpoint(path string, cp Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("core: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("core: publish checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint previously written by
// SaveCheckpoint.
func LoadCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	return cp, nil
}
