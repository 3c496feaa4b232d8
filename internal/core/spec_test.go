package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/model"
)

var day0 = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// feedSamples adds n samples per task for nt tasks of job on platform,
// drawing CPI from N(mean, sd).
func feedSamples(t *testing.T, b *SpecBuilder, job model.JobName, pl model.Platform,
	nt, n int, mean, sd float64, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for task := 0; task < nt; task++ {
		for i := 0; i < n; i++ {
			cpi := mean + sd*rng.NormFloat64()
			if cpi < 0.1 {
				cpi = 0.1
			}
			err := b.AddSample(model.Sample{
				Job:       job,
				Task:      model.TaskID{Job: job, Index: task},
				Platform:  pl,
				Timestamp: day0.Add(time.Duration(i) * time.Minute),
				CPUUsage:  1.0,
				CPI:       cpi,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSpecBuilderBasic(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	feedSamples(t, b, "jobA", model.PlatformA, 10, 200, 0.88, 0.09, 1)
	key := model.SpecKey{Job: "jobA", Platform: model.PlatformA}
	if got := b.PendingSamples(key); got != 2000 {
		t.Errorf("pending = %d", got)
	}
	specs := b.Recompute(day0.Add(24 * time.Hour))
	if len(specs) != 1 {
		t.Fatalf("specs = %d, want 1", len(specs))
	}
	s := specs[0]
	if !almostEqual(s.CPIMean, 0.88, 0.02) {
		t.Errorf("mean = %v, want ≈0.88", s.CPIMean)
	}
	if !almostEqual(s.CPIStddev, 0.09, 0.02) {
		t.Errorf("stddev = %v, want ≈0.09", s.CPIStddev)
	}
	if s.NumTasks != 10 || s.NumSamples != 2000 {
		t.Errorf("counts = %d tasks, %d samples", s.NumTasks, s.NumSamples)
	}
	if !almostEqual(s.CPUUsageMean, 1.0, 1e-9) {
		t.Errorf("usage mean = %v", s.CPUUsageMean)
	}
	if got := b.PendingSamples(key); got != 0 {
		t.Errorf("pending after recompute = %d", got)
	}
	if got, ok := b.Spec(key); !ok || got.CPIMean != s.CPIMean {
		t.Error("Spec lookup failed")
	}
}

func TestSpecBuilderPerPlatformSeparation(t *testing.T) {
	// CPI is a function of the platform: same job, two platforms, two
	// distinct specs (§3.1).
	b := NewSpecBuilder(DefaultParams())
	feedSamples(t, b, "search", model.PlatformA, 8, 150, 1.0, 0.1, 2)
	feedSamples(t, b, "search", model.PlatformB, 8, 150, 1.3, 0.1, 3)
	specs := b.Recompute(day0)
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2", len(specs))
	}
	a, bb := specs[0], specs[1]
	if a.Platform == bb.Platform {
		t.Fatal("platforms not separated")
	}
	for _, s := range specs {
		want := 1.0
		if s.Platform == model.PlatformB {
			want = 1.3
		}
		if !almostEqual(s.CPIMean, want, 0.03) {
			t.Errorf("%s mean = %v, want %v", s.Platform, s.CPIMean, want)
		}
	}
}

func TestSpecBuilderRobustnessGates(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	// Only 4 tasks: below the 5-task gate.
	feedSamples(t, b, "tiny", model.PlatformA, 4, 500, 1.5, 0.1, 4)
	// 10 tasks but only 50 samples each: below the 100-sample gate.
	feedSamples(t, b, "sparse", model.PlatformA, 10, 50, 1.5, 0.1, 5)
	specs := b.Recompute(day0)
	if len(specs) != 0 {
		t.Errorf("non-robust specs published: %+v", specs)
	}
	// The specs still exist internally (Spec returns them).
	if _, ok := b.Spec(model.SpecKey{Job: "tiny", Platform: model.PlatformA}); !ok {
		t.Error("internal spec missing")
	}
}

func TestSpecBuilderAgeWeighting(t *testing.T) {
	// Day 1 at CPI 1.0, day 2 at CPI 2.0 with the same sample count:
	// the new mean must be pulled above the plain average of 1.5
	// because day 1's weight decays by 0.9.
	b := NewSpecBuilder(DefaultParams())
	feedSamples(t, b, "j", model.PlatformA, 10, 100, 1.0, 0.05, 6)
	b.Recompute(day0)
	feedSamples(t, b, "j", model.PlatformA, 10, 100, 2.0, 0.05, 7)
	specs := b.Recompute(day0.Add(24 * time.Hour))
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}
	got := specs[0].CPIMean
	// Expected: (0.9·1000·1.0 + 1000·2.0) / (0.9·1000 + 1000) ≈ 1.526.
	want := (0.9*1.0 + 2.0) / 1.9
	if !almostEqual(got, want, 0.02) {
		t.Errorf("age-weighted mean = %v, want ≈%v", got, want)
	}
	// Age-weighting also inflates stddev because the two days differ.
	if specs[0].CPIStddev < 0.3 {
		t.Errorf("blended stddev = %v, want dominated by day gap", specs[0].CPIStddev)
	}
}

func TestSpecBuilderIdleDecay(t *testing.T) {
	// A job that stops reporting decays out of the spec table.
	p := DefaultParams()
	b := NewSpecBuilder(p)
	feedSamples(t, b, "gone", model.PlatformA, 6, 120, 1.2, 0.1, 8)
	b.Recompute(day0)
	key := model.SpecKey{Job: "gone", Platform: model.PlatformA}
	if _, ok := b.Spec(key); !ok {
		t.Fatal("spec missing after first recompute")
	}
	// 0.9^d · 720 < 1 needs d ≈ 63 days.
	for d := 1; d <= 70; d++ {
		b.Recompute(day0.Add(time.Duration(d) * 24 * time.Hour))
	}
	if _, ok := b.Spec(key); ok {
		t.Error("stale spec never decayed away")
	}
}

func TestSpecBuilderRejectsBadSamples(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	bad := []model.Sample{
		{},
		{Job: "j", Platform: model.PlatformA, Timestamp: day0, CPI: 0, CPUUsage: 1}, // zero CPI
		{Job: "j", Platform: model.PlatformA, Timestamp: day0, CPI: -1, CPUUsage: 1},
		{Job: "j", Timestamp: day0, CPI: 1, CPUUsage: 1}, // no platform
	}
	for i, s := range bad {
		if err := b.AddSample(s); err == nil {
			t.Errorf("bad sample %d accepted", i)
		}
	}
}

func TestSpecBuilderDue(t *testing.T) {
	p := DefaultParams()
	b := NewSpecBuilder(p)
	if !b.Due(day0) {
		t.Error("fresh builder should be due")
	}
	b.Recompute(day0)
	if b.Due(day0.Add(time.Hour)) {
		t.Error("not due after 1h with 24h interval")
	}
	if !b.Due(day0.Add(24 * time.Hour)) {
		t.Error("due after 24h")
	}
}

func TestSpecBuilderTable1Shapes(t *testing.T) {
	// Table 1: three representative jobs and their specs.
	rows := []struct {
		job   model.JobName
		mean  float64
		sd    float64
		tasks int
	}{
		{"jobA", 0.88, 0.09, 312},
		{"jobB", 1.36, 0.26, 1040},
		{"jobC", 2.03, 0.20, 1250},
	}
	b := NewSpecBuilder(DefaultParams())
	for i, r := range rows {
		feedSamples(t, b, r.job, model.PlatformA, r.tasks, 100, r.mean, r.sd, int64(10+i))
	}
	specs := b.Recompute(day0)
	if len(specs) != 3 {
		t.Fatalf("specs = %d", len(specs))
	}
	for _, r := range rows {
		s, ok := b.Spec(model.SpecKey{Job: r.job, Platform: model.PlatformA})
		if !ok {
			t.Fatalf("missing spec for %s", r.job)
		}
		if !almostEqual(s.CPIMean, r.mean, 0.02) || !almostEqual(s.CPIStddev, r.sd, 0.02) {
			t.Errorf("%s: got %.3f±%.3f, want %.2f±%.2f", r.job, s.CPIMean, s.CPIStddev, r.mean, r.sd)
		}
		if s.NumTasks != r.tasks {
			t.Errorf("%s: tasks = %d, want %d", r.job, s.NumTasks, r.tasks)
		}
	}
}

func TestSpecBuilderConcurrentAdds(t *testing.T) {
	b := NewSpecBuilder(DefaultParams())
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			// Odd workers fold batches of 100 (two lock acquisitions
			// each), even ones a sample at a time.
			var batch []model.Sample
			for i := 0; i < 500; i++ {
				s := model.Sample{
					Job:       "conc",
					Task:      model.TaskID{Job: "conc", Index: w},
					Platform:  model.PlatformA,
					Timestamp: day0.Add(time.Duration(i) * time.Second),
					CPUUsage:  1,
					CPI:       1.5,
				}
				if w%2 == 0 {
					_ = b.AddSample(s)
				} else if batch = append(batch, s); len(batch) == 100 {
					b.AddBatch(batch, nil)
					batch = batch[:0]
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if got := b.PendingSamples(model.SpecKey{Job: "conc", Platform: model.PlatformA}); got != 4000 {
		t.Errorf("pending = %d, want 4000", got)
	}
}
