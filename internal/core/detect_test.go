package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

func robustSpec(job model.JobName, mean, sd float64) model.Spec {
	return model.Spec{
		Job:        job,
		Platform:   model.PlatformA,
		NumSamples: 10000,
		NumTasks:   100,
		CPIMean:    mean,
		CPIStddev:  sd,
	}
}

func sampleAt(job model.JobName, idx int, ts time.Time, usage, cpi float64) model.Sample {
	return model.Sample{
		Job:       job,
		Task:      model.TaskID{Job: job, Index: idx},
		Platform:  model.PlatformA,
		Timestamp: ts,
		CPUUsage:  usage,
		CPI:       cpi,
	}
}

// newJudge returns a manager for the detection tests: no jobs, no
// specs, default parameters.
func newJudge(p Params) *Manager { return NewManager("m", p, newFakeCapper()) }

// assess is the manager's verdict on s: it records and judges s as
// Observe does, without the metrics and the analysis that follow.
func assess(m *Manager, s model.Sample) Assessment {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, a := m.observeLocked(s)
	return a
}

func TestDetectorNoSpecNoJudgement(t *testing.T) {
	m := newJudge(DefaultParams())
	a := assess(m, sampleAt("unknown", 0, day0, 1, 99))
	if a.HasSpec || a.Outlier || a.Anomalous {
		t.Errorf("assessment without spec = %+v", a)
	}
}

func TestDetectorIgnoresNonRobustSpec(t *testing.T) {
	m := newJudge(DefaultParams())
	s := robustSpec("j", 1, 0.1)
	s.NumTasks = 2 // below gate
	m.UpdateSpec(s)
	if a := assess(m, sampleAt("j", 0, day0, 1, 99)); a.HasSpec {
		t.Error("non-robust spec should not be installed")
	}
}

func TestDetectorOutlierThreshold(t *testing.T) {
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.8, 0.16))
	// Threshold = 1.8 + 2·0.16 = 2.12.
	below := assess(m, sampleAt("j", 0, day0, 1, 2.0))
	if below.Outlier {
		t.Error("2.0 flagged against threshold 2.12")
	}
	if !almostEqual(below.Threshold, 2.12, 1e-9) {
		t.Errorf("threshold = %v", below.Threshold)
	}
	above := assess(m, sampleAt("j", 0, day0.Add(time.Minute), 1, 2.5))
	if !above.Outlier {
		t.Error("2.5 not flagged")
	}
	if !almostEqual(above.SigmasAbove, (2.5-1.8)/0.16, 1e-9) {
		t.Errorf("sigmas = %v", above.SigmasAbove)
	}
}

func TestDetectorMinCPUUsageFilter(t *testing.T) {
	// Case 3's false-alarm filter: huge CPI at < 0.25 CPU-sec/sec is
	// ignored entirely.
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	for i := 0; i < 10; i++ {
		a := assess(m, sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 0.1, 10))
		if !a.Filtered {
			t.Fatal("low-usage sample not filtered")
		}
		if a.Outlier || a.Anomalous {
			t.Fatal("filtered sample flagged")
		}
	}
}

// TestDetectorKeepsMinCPUUsageSample: the filter drops samples below
// MinCPUUsage (the paper keeps ≥ 0.25 CPU-sec/sec), so a sample at
// exactly MinCPUUsage is judged — an outlier here — and one a float step
// below it is filtered.
func TestDetectorKeepsMinCPUUsageSample(t *testing.T) {
	p := DefaultParams()
	m := newJudge(p)
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	at := assess(m, sampleAt("j", 0, day0, p.MinCPUUsage, 10))
	if at.Filtered || !at.Outlier {
		t.Errorf("sample at MinCPUUsage %v: %+v, want judged and an outlier", p.MinCPUUsage, at)
	}
	below := assess(m, sampleAt("j", 1, day0, math.Nextafter(p.MinCPUUsage, 0), 10))
	if !below.Filtered {
		t.Errorf("sample just below MinCPUUsage: %+v, want filtered", below)
	}
}

func TestDetectorAnomalyRule3In5(t *testing.T) {
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	high := 2.0 // way above 1.2 threshold
	// Two outliers in the window: not yet anomalous.
	a := assess(m, sampleAt("j", 0, day0, 1, high))
	if a.Anomalous {
		t.Error("anomalous after 1 violation")
	}
	a = assess(m, sampleAt("j", 0, day0.Add(time.Minute), 1, high))
	if a.Anomalous {
		t.Error("anomalous after 2 violations")
	}
	a = assess(m, sampleAt("j", 0, day0.Add(2*time.Minute), 1, high))
	if !a.Anomalous {
		t.Error("not anomalous after 3 violations in 5 minutes")
	}
}

func TestDetectorViolationsExpireOutsideWindow(t *testing.T) {
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	high := 2.0
	// Violations at t=0 and t=1min, then quiet, then two more at
	// t=10min, t=11min: the early flags are outside the 5-minute
	// window so only 2 count — not anomalous.
	ts := []struct {
		min int
		cpi float64
	}{{0, high}, {1, high}, {10, high}, {11, high}}
	var last Assessment
	for _, x := range ts {
		last = assess(m, sampleAt("j", 0, day0.Add(time.Duration(x.min)*time.Minute), 1, x.cpi))
	}
	if last.Anomalous {
		t.Error("stale violations counted toward anomaly")
	}
}

func TestDetectorInterleavedNormalSamples(t *testing.T) {
	// Outlier, normal, outlier, normal, outlier within 5 minutes → 3
	// violations → anomalous (the rule counts flags, not consecutive).
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	cpis := []float64{2.0, 1.0, 2.0, 1.0, 2.0}
	var last Assessment
	for i, c := range cpis {
		last = assess(m, sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 1, c))
	}
	if !last.Anomalous {
		t.Error("interleaved violations not detected")
	}
}

func TestDetectorPerTaskIsolation(t *testing.T) {
	// Task 0's violations must not make task 1 anomalous.
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	for i := 0; i < 3; i++ {
		assess(m, sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 1, 2.0))
	}
	a := assess(m, sampleAt("j", 1, day0.Add(3*time.Minute), 1, 2.0))
	if a.Anomalous {
		t.Error("task 1 anomalous from task 0's flags")
	}
	// Task 0's exit leaves task 1's flag: two more make three.
	m.TaskExited(model.TaskID{Job: "j", Index: 0})
	assess(m, sampleAt("j", 1, day0.Add(4*time.Minute), 1, 2.0))
	if a := assess(m, sampleAt("j", 1, day0.Add(5*time.Minute), 1, 2.0)); !a.Anomalous {
		t.Error("task 1's flag lost with task 0's exit")
	}
}

func TestDetectorSpecLookupByPlatform(t *testing.T) {
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0.1))
	s := sampleAt("j", 0, day0, 1, 5)
	s.Platform = model.PlatformB // no spec for B
	if a := assess(m, s); a.HasSpec {
		t.Error("spec applied across platforms")
	}
	if _, ok := m.Spec(model.SpecKey{Job: "j", Platform: model.PlatformA}); !ok {
		t.Error("Spec accessor failed")
	}
}

func TestDetectorZeroStddevSpec(t *testing.T) {
	// A constant-CPI job: threshold degenerates to the mean; any CPI
	// above it is an outlier, and SigmasAbove stays 0 (guarded).
	m := newJudge(DefaultParams())
	m.UpdateSpec(robustSpec("j", 1.0, 0))
	a := assess(m, sampleAt("j", 0, day0, 1, 1.01))
	if !a.Outlier {
		t.Error("above-mean sample not flagged with σ=0")
	}
	if a.SigmasAbove != 0 {
		t.Errorf("sigmas = %v, want 0 guard", a.SigmasAbove)
	}
}

// referenceDetector is the local detector as a type of its own, with
// its spec table, flag series and episode starts in maps under a mutex
// of their own: the reference the manager's per-task records must
// match verdict for verdict.
type referenceDetector struct {
	params Params

	mu       sync.Mutex
	specs    map[model.SpecKey]model.Spec
	flags    map[model.TaskID]*timeseries.Series
	episodes map[model.TaskID]time.Time
}

func newReferenceDetector(p Params) *referenceDetector {
	return &referenceDetector{
		params:   p.Sanitize(),
		specs:    make(map[model.SpecKey]model.Spec),
		flags:    make(map[model.TaskID]*timeseries.Series),
		episodes: make(map[model.TaskID]time.Time),
	}
}

func (d *referenceDetector) UpdateSpec(s model.Spec) {
	if !s.Robust(d.params.MinTasks, d.params.MinSamplesPerTask) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.specs[s.Key()] = s
}

func (d *referenceDetector) Observe(s model.Sample) Assessment {
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
		a.Filtered = true
		return a
	}

	fl, ok := d.flags[s.Task]
	if !ok {
		hint := int(2*d.params.ViolationWindow/d.params.SamplingInterval) + 2
		fl = new(timeseries.Series)
		*fl = timeseries.Bounded(2*d.params.ViolationWindow, 0, hint)
		d.flags[s.Task] = fl
	}
	outlier := s.CPI > a.Threshold
	a.Outlier = outlier
	v := 0.0
	if outlier {
		v = 1
	}
	_ = fl.Append(s.Timestamp, v)

	windowStart := s.Timestamp.Add(-d.params.ViolationWindow)
	violations := fl.CountSince(windowStart, s.Timestamp.Add(time.Nanosecond),
		func(x float64) bool { return x == 1 })
	a.Anomalous = violations >= d.params.ViolationsRequired

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

func (d *referenceDetector) Forget(task model.TaskID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.flags, task)
	delete(d.episodes, task)
}

// TestManagerAssessMatchesDetector feeds a manager and the reference
// detector the same seeded streams — interleaved tasks; specs
// installed, replaced and offered again below the robustness gate;
// usage exactly at MinCPUUsage; repeated timestamps; quiet gaps longer
// than the violation window; tasks exiting and coming back — and
// requires every verdict to be equal, field for field.
func TestManagerAssessMatchesDetector(t *testing.T) {
	p := DefaultParams()
	jobs := []model.JobName{"a", "b", "nospec"}
	var seen struct {
		outliers, anomalous, filtered, atMin, overwrites, gaps, reentries, closed int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, m := newReferenceDetector(p), newJudge(p)
		now := day0
		installed := map[model.JobName]model.Spec{}
		offer := func(job model.JobName, robust bool) {
			s := robustSpec(job, 1+rng.Float64(), 0.05+0.2*rng.Float64())
			if rng.Intn(2) == 0 {
				s.UpdatedAt = now.Add(-time.Duration(rng.Intn(120)) * time.Minute)
			}
			if !robust {
				s.NumTasks = p.MinTasks - 1
			} else {
				installed[job] = s
			}
			ref.UpdateSpec(s)
			m.UpdateSpec(s)
		}
		offer("a", true)
		offer("b", true)
		last := map[model.TaskID]time.Time{}
		exited := map[model.TaskID]bool{}
		for i := 0; i < 3000; i++ {
			switch r := rng.Intn(1000); {
			case r < 10: // replace a spec, then offer a non-robust one
				job := jobs[rng.Intn(2)]
				offer(job, true)
				offer(job, false)
				continue
			case r < 25:
				task := model.TaskID{Job: jobs[rng.Intn(len(jobs))], Index: rng.Intn(3)}
				ref.Forget(task)
				m.TaskExited(task)
				exited[task] = true
				continue
			}
			task := model.TaskID{Job: jobs[rng.Intn(len(jobs))], Index: rng.Intn(3)}
			ts, known := last[task]
			switch r := rng.Intn(100); {
			case !known:
				ts = now
			case r < 8:
				seen.overwrites++ // the task's last stamp again
			case r < 12:
				ts = ts.Add(p.ViolationWindow + time.Duration(1+rng.Intn(10))*time.Minute)
				seen.gaps++
			default:
				ts = ts.Add(time.Minute + time.Duration(rng.Int63n(int64(10*time.Second))))
			}
			if exited[task] {
				seen.reentries++
				delete(exited, task)
			}
			last[task] = ts
			if ts.After(now) {
				now = ts
			}
			usage := 0.25 + 3*rng.Float64()
			switch r := rng.Intn(10); {
			case r == 0:
				usage = p.MinCPUUsage
				seen.atMin++
			case r == 1:
				usage = p.MinCPUUsage * rng.Float64()
			}
			cpi := 1 + rng.Float64()
			if spec, ok := installed[task.Job]; ok {
				switch r := rng.Intn(20); {
				case r == 0:
					cpi = spec.OutlierThreshold(p.OutlierSigma) // not above it
				case r < 8:
					cpi = spec.CPIMean + spec.CPIStddev*(p.OutlierSigma+rng.Float64())
				default:
					cpi = spec.CPIMean + spec.CPIStddev*p.OutlierSigma*(2*rng.Float64()-1)
				}
			}
			s := model.Sample{Job: task.Job, Task: task, Platform: model.PlatformA, Timestamp: ts, CPUUsage: usage, CPI: cpi}
			wasOpen := m.tasks[task].rec != nil && !m.tasks[task].rec.episode.IsZero()
			want := ref.Observe(s)
			got := assess(m, s)
			if got != want {
				t.Fatalf("seed %d sample %d %+v:\nmanager   %+v\nreference %+v", seed, i, s, got, want)
			}
			if want.Outlier {
				seen.outliers++
			}
			if want.Anomalous {
				seen.anomalous++
			}
			if want.Filtered {
				seen.filtered++
			}
			if wasOpen && m.tasks[task].rec.episode.IsZero() {
				seen.closed++
			}
		}
	}
	// The streams must reach every case they are meant to cover.
	for name, n := range map[string]int{
		"outliers": seen.outliers, "anomalous": seen.anomalous, "filtered": seen.filtered,
		"at MinCPUUsage": seen.atMin, "overwrites": seen.overwrites, "gaps": seen.gaps,
		"re-entries": seen.reentries, "closed episodes": seen.closed,
	} {
		if n == 0 {
			t.Errorf("no %s in the streams", name)
		}
	}
}
