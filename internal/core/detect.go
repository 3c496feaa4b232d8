package core

import (
	"slices"
	"time"

	"repro/internal/model"
)

// Assessment is the manager's verdict on one CPI sample.
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

// UpdateSpec installs or refreshes the predicted CPI distribution for
// a job×platform, pushed from the aggregator. Specs failing the
// robustness gates are ignored: the paper does no CPI management for
// jobs with <5 tasks or <100 samples/task.
func (m *Manager) UpdateSpec(s model.Spec) {
	if !s.Robust(m.params.MinTasks, m.params.MinSamplesPerTask) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.specs[s.Key()] = s
}

// Spec returns the installed spec for key.
func (m *Manager) Spec(key model.SpecKey) (model.Spec, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.specs[key]
	return s, ok
}

// Specs returns every installed spec sorted by key — the machine's
// current job×platform spec table (the admin /debug/specs view).
func (m *Manager) Specs() []model.Spec {
	m.mu.Lock()
	out := make([]model.Spec, 0, len(m.specs))
	for _, s := range m.specs {
		out = append(out, s)
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
	return out
}

// judgeLocked performs the local anomaly detection that runs on every
// machine (§4.1): it judges s against its job×platform's spec and
// keeps ts's flag window for the 3-in-5-minutes rule. ts is the record
// of s's task; samples must reach it with non-decreasing timestamps
// (the sampler guarantees this). Callers hold m.mu.
func (m *Manager) judgeLocked(ts *taskSeries, s model.Sample) Assessment {
	spec, ok := m.specs[model.SpecKey{Job: s.Job, Platform: s.Platform}]
	if !ok {
		return Assessment{}
	}
	a := Assessment{
		HasSpec:    true,
		Threshold:  spec.OutlierThreshold(m.params.OutlierSigma),
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
	if s.CPUUsage < m.params.MinCPUUsage {
		// CPI spikes at near-zero CPU usage are usually self-inflicted
		// (Case 3); don't flag, and don't record a violation.
		a.Filtered = true
		return a
	}

	outlier := s.CPI > a.Threshold
	a.Outlier = outlier
	v := 0.0
	if outlier {
		v = 1
	}
	// Ignore errors from replayed timestamps; equal stamps overwrite.
	_ = ts.flags.Append(s.Timestamp, v)

	windowStart := s.Timestamp.Add(-m.params.ViolationWindow)
	violations := ts.flags.CountSince(windowStart, s.Timestamp.Add(time.Nanosecond),
		func(x float64) bool { return x == 1 })
	a.Anomalous = violations >= m.params.ViolationsRequired

	// Episode bookkeeping for the detect-to-cap SLI. An episode opens
	// on the first outlier and closes once the window holds no
	// violations at all (so a one-off blip that ages out resets the
	// anchor rather than inflating the next episode's latency).
	if outlier {
		if ts.episode.IsZero() || ts.episode.Before(windowStart) && violations == 1 {
			ts.episode = s.Timestamp
		}
		a.FirstOutlierAt = ts.episode
	} else if violations == 0 {
		ts.episode = time.Time{}
	}
	return a
}
