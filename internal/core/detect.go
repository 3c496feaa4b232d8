package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

// Assessment is the detector's verdict on one CPI sample.
type Assessment struct {
	// HasSpec is false when no robust spec is known for the task's
	// job×platform; no judgement is possible then.
	HasSpec bool
	// Filtered is true when the sample was ignored because the task
	// used less CPU than MinCPUUsage (the Case 3 false-alarm filter).
	Filtered bool
	// Outlier is true when CPI exceeded the spec's 2σ threshold.
	Outlier bool
	// Anomalous is true when the task has been flagged an outlier at
	// least ViolationsRequired times within ViolationWindow — the bar
	// for starting antagonist identification.
	Anomalous bool
	// Threshold is the outlier CPI threshold that was applied.
	Threshold float64
	// SpecMean / SpecStddev are the Welford moments of the spec the
	// sample was judged against (zero without a spec). Identifiers that
	// normalize victim CPI need the raw moments, not just the threshold.
	SpecMean   float64
	SpecStddev float64
	// SigmasAbove is how many spec standard deviations the sample sits
	// above the spec mean (0 when at or below the mean, or no spec).
	SigmasAbove float64
	// SpecAge is how stale the spec used for the judgement was at the
	// sample's timestamp (zero when the spec carries no UpdatedAt, as
	// bootstrap specs do) — the cpi2_spec_staleness_seconds SLI.
	SpecAge time.Duration
	// FirstOutlierAt is when the task's current outlier episode began
	// (the first violation still inside the window). Zero unless the
	// sample is an outlier. It anchors the detect-to-cap SLI.
	FirstOutlierAt time.Time
}

// Detector performs the local anomaly detection that runs on every
// machine (§4.1): it holds predicted CPI specs pushed from the
// aggregator and judges each incoming CPI sample against them,
// maintaining the per-task flag history for the 3-in-5-minutes rule.
type Detector struct {
	params Params

	mu    sync.Mutex
	specs map[model.SpecKey]model.Spec
	flags map[model.TaskID]*timeseries.Series
	// episodes tracks, per task, when the current run of outlier
	// violations started; it is the anchor for the detect-to-cap
	// reaction-time SLI and is cleared when the window goes quiet.
	episodes map[model.TaskID]time.Time
}

// NewDetector returns a detector using p (sanitized).
func NewDetector(p Params) *Detector {
	return &Detector{
		params:   p.Sanitize(),
		specs:    make(map[model.SpecKey]model.Spec),
		flags:    make(map[model.TaskID]*timeseries.Series),
		episodes: make(map[model.TaskID]time.Time),
	}
}

// UpdateSpec installs or refreshes the predicted CPI distribution for
// a job×platform. Specs failing the robustness gates are ignored:
// the paper does no CPI management for jobs with <5 tasks or <100
// samples/task.
func (d *Detector) UpdateSpec(s model.Spec) {
	if !s.Robust(d.params.MinTasks, d.params.MinSamplesPerTask) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.specs[s.Key()] = s
}

// Spec returns the installed spec for key.
func (d *Detector) Spec(key model.SpecKey) (model.Spec, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.specs[key]
	return s, ok
}

// Specs returns every installed spec sorted by key — the machine's
// current job×platform spec table (the admin /debug/specs view).
func (d *Detector) Specs() []model.Spec {
	d.mu.Lock()
	out := make([]model.Spec, 0, len(d.specs))
	for _, s := range d.specs {
		out = append(out, s)
	}
	d.mu.Unlock()
	slices.SortFunc(out, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	return out
}

// Observe judges one sample. It must be called with non-decreasing
// timestamps per task (the sampler guarantees this).
func (d *Detector) Observe(s model.Sample) Assessment {
	d.mu.Lock()
	defer d.mu.Unlock()

	spec, ok := d.specs[model.SpecKey{Job: s.Job, Platform: s.Platform}]
	if !ok {
		return Assessment{}
	}
	a := Assessment{
		HasSpec:    true,
		Threshold:  spec.OutlierThreshold(d.params.OutlierSigma),
		SpecMean:   spec.CPIMean,
		SpecStddev: spec.CPIStddev,
	}
	if spec.CPIStddev > 0 && s.CPI > spec.CPIMean {
		a.SigmasAbove = (s.CPI - spec.CPIMean) / spec.CPIStddev
	}
	if !spec.UpdatedAt.IsZero() {
		if age := s.Timestamp.Sub(spec.UpdatedAt); age > 0 {
			a.SpecAge = age
		}
	}
	if s.CPUUsage < d.params.MinCPUUsage {
		// CPI spikes at near-zero CPU usage are usually self-inflicted
		// (Case 3); don't flag, and don't record a violation.
		a.Filtered = true
		return a
	}

	fl, ok := d.flags[s.Task]
	if !ok {
		// The window holds at most 2·ViolationWindow/SamplingInterval
		// + 1 flags at the sampling period; one more leaves room for
		// jitter.
		hint := int(2*d.params.ViolationWindow/d.params.SamplingInterval) + 2
		fl = timeseries.NewBounded(2*d.params.ViolationWindow, 0, hint)
		d.flags[s.Task] = fl
	}
	outlier := s.CPI > a.Threshold
	a.Outlier = outlier
	v := 0.0
	if outlier {
		v = 1
	}
	// Ignore errors from replayed timestamps; equal stamps overwrite.
	_ = fl.Append(s.Timestamp, v)

	windowStart := s.Timestamp.Add(-d.params.ViolationWindow)
	violations := fl.CountSince(windowStart, s.Timestamp.Add(time.Nanosecond),
		func(x float64) bool { return x == 1 })
	a.Anomalous = violations >= d.params.ViolationsRequired

	// Episode bookkeeping for the detect-to-cap SLI. An episode opens
	// on the first outlier and closes once the window holds no
	// violations at all (so a one-off blip that ages out resets the
	// anchor rather than inflating the next episode's latency).
	if outlier {
		start, open := d.episodes[s.Task]
		if !open || start.Before(windowStart) && violations == 1 {
			start = s.Timestamp
			d.episodes[s.Task] = start
		}
		a.FirstOutlierAt = start
	} else if violations == 0 {
		delete(d.episodes, s.Task)
	}
	return a
}

// Forget drops the flag history for a task (call when a task exits so
// state does not leak across task lifetimes).
func (d *Detector) Forget(task model.TaskID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.flags, task)
	delete(d.episodes, task)
}

// TrackedTasks returns how many tasks currently have flag history.
func (d *Detector) TrackedTasks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.flags)
}
