package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
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

func TestDetectorNoSpecNoJudgement(t *testing.T) {
	d := NewDetector(DefaultParams())
	a := d.Observe(sampleAt("unknown", 0, day0, 1, 99))
	if a.HasSpec || a.Outlier || a.Anomalous {
		t.Errorf("assessment without spec = %+v", a)
	}
}

func TestDetectorIgnoresNonRobustSpec(t *testing.T) {
	d := NewDetector(DefaultParams())
	s := robustSpec("j", 1, 0.1)
	s.NumTasks = 2 // below gate
	d.UpdateSpec(s)
	if a := d.Observe(sampleAt("j", 0, day0, 1, 99)); a.HasSpec {
		t.Error("non-robust spec should not be installed")
	}
}

func TestDetectorOutlierThreshold(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.8, 0.16))
	// Threshold = 1.8 + 2·0.16 = 2.12.
	below := d.Observe(sampleAt("j", 0, day0, 1, 2.0))
	if below.Outlier {
		t.Error("2.0 flagged against threshold 2.12")
	}
	if !almostEqual(below.Threshold, 2.12, 1e-9) {
		t.Errorf("threshold = %v", below.Threshold)
	}
	above := d.Observe(sampleAt("j", 0, day0.Add(time.Minute), 1, 2.5))
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
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	for i := 0; i < 10; i++ {
		a := d.Observe(sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 0.1, 10))
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
	d := NewDetector(p)
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	at := d.Observe(sampleAt("j", 0, day0, p.MinCPUUsage, 10))
	if at.Filtered || !at.Outlier {
		t.Errorf("sample at MinCPUUsage %v: %+v, want judged and an outlier", p.MinCPUUsage, at)
	}
	below := d.Observe(sampleAt("j", 1, day0, math.Nextafter(p.MinCPUUsage, 0), 10))
	if !below.Filtered {
		t.Errorf("sample just below MinCPUUsage: %+v, want filtered", below)
	}
}

func TestDetectorAnomalyRule3In5(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	high := 2.0 // way above 1.2 threshold
	// Two outliers in the window: not yet anomalous.
	a := d.Observe(sampleAt("j", 0, day0, 1, high))
	if a.Anomalous {
		t.Error("anomalous after 1 violation")
	}
	a = d.Observe(sampleAt("j", 0, day0.Add(time.Minute), 1, high))
	if a.Anomalous {
		t.Error("anomalous after 2 violations")
	}
	a = d.Observe(sampleAt("j", 0, day0.Add(2*time.Minute), 1, high))
	if !a.Anomalous {
		t.Error("not anomalous after 3 violations in 5 minutes")
	}
}

func TestDetectorViolationsExpireOutsideWindow(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
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
		last = d.Observe(sampleAt("j", 0, day0.Add(time.Duration(x.min)*time.Minute), 1, x.cpi))
	}
	if last.Anomalous {
		t.Error("stale violations counted toward anomaly")
	}
}

func TestDetectorInterleavedNormalSamples(t *testing.T) {
	// Outlier, normal, outlier, normal, outlier within 5 minutes → 3
	// violations → anomalous (the rule counts flags, not consecutive).
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	cpis := []float64{2.0, 1.0, 2.0, 1.0, 2.0}
	var last Assessment
	for i, c := range cpis {
		last = d.Observe(sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 1, c))
	}
	if !last.Anomalous {
		t.Error("interleaved violations not detected")
	}
}

func TestDetectorPerTaskIsolation(t *testing.T) {
	// Task 0's violations must not make task 1 anomalous.
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	for i := 0; i < 3; i++ {
		d.Observe(sampleAt("j", 0, day0.Add(time.Duration(i)*time.Minute), 1, 2.0))
	}
	a := d.Observe(sampleAt("j", 1, day0.Add(3*time.Minute), 1, 2.0))
	if a.Anomalous {
		t.Error("task 1 anomalous from task 0's flags")
	}
	if d.TrackedTasks() != 2 {
		t.Errorf("tracked = %d", d.TrackedTasks())
	}
	d.Forget(model.TaskID{Job: "j", Index: 0})
	if d.TrackedTasks() != 1 {
		t.Errorf("tracked after forget = %d", d.TrackedTasks())
	}
}

func TestDetectorSpecLookupByPlatform(t *testing.T) {
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0.1))
	s := sampleAt("j", 0, day0, 1, 5)
	s.Platform = model.PlatformB // no spec for B
	if a := d.Observe(s); a.HasSpec {
		t.Error("spec applied across platforms")
	}
	if _, ok := d.Spec(model.SpecKey{Job: "j", Platform: model.PlatformA}); !ok {
		t.Error("Spec accessor failed")
	}
}

func TestDetectorZeroStddevSpec(t *testing.T) {
	// A constant-CPI job: threshold degenerates to the mean; any CPI
	// above it is an outlier, and SigmasAbove stays 0 (guarded).
	d := NewDetector(DefaultParams())
	d.UpdateSpec(robustSpec("j", 1.0, 0))
	a := d.Observe(sampleAt("j", 0, day0, 1, 1.01))
	if !a.Outlier {
		t.Error("above-mean sample not flagged with σ=0")
	}
	if a.SigmasAbove != 0 {
		t.Errorf("sigmas = %v, want 0 guard", a.SigmasAbove)
	}
}
