package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

func goodSample(at time.Time) model.Sample {
	return model.Sample{
		Job:       "search",
		Task:      model.TaskID{Job: "search", Index: 3},
		Platform:  model.PlatformA,
		Timestamp: at,
		CPUUsage:  1.5,
		CPI:       2.0,
		Machine:   "m1",
	}
}

func TestSampleValidatorCheck(t *testing.T) {
	v := NewSampleValidator("test", 8)
	if r := v.Check(goodSample(j0)); r != "" {
		t.Fatalf("good sample rejected: %s", r)
	}
	cases := []struct {
		reason string
		mutate func(*model.Sample)
	}{
		{"missing_field", func(s *model.Sample) { s.Job = "" }},
		{"missing_field", func(s *model.Sample) { s.Platform = "" }},
		{"zero_timestamp", func(s *model.Sample) { s.Timestamp = time.Time{} }},
		{"non_finite_cpi", func(s *model.Sample) { s.CPI = math.NaN() }},
		{"non_finite_cpi", func(s *model.Sample) { s.CPI = math.Inf(1) }},
		{"non_finite_cpi", func(s *model.Sample) { s.CPI = math.Inf(-1) }},
		{"negative_cpi", func(s *model.Sample) { s.CPI = -0.5 }},
		{"absurd_cpi", func(s *model.Sample) { s.CPI = 1e9 }},
		{"non_finite_usage", func(s *model.Sample) { s.CPUUsage = math.NaN() }},
		{"non_finite_usage", func(s *model.Sample) { s.CPUUsage = math.Inf(1) }},
		{"negative_usage", func(s *model.Sample) { s.CPUUsage = -1 }},
		{"absurd_usage", func(s *model.Sample) { s.CPUUsage = 1e9 }},
	}
	for i, tc := range cases {
		s := goodSample(j0)
		tc.mutate(&s)
		if r := v.Check(s); r != tc.reason {
			t.Errorf("case %d: reason = %q, want %q", i, r, tc.reason)
		}
	}
}

func TestSampleValidatorTimestamps(t *testing.T) {
	now := j0.Add(30 * time.Minute)
	v := NewSampleValidator("test", 8)

	// Without a clock, timestamp sanity is limited to non-zero.
	if r := v.Check(goodSample(j0.Add(100 * time.Hour))); r != "" {
		t.Errorf("clockless validator rejected future sample: %s", r)
	}

	v.Now = func() time.Time { return now }
	// Asymmetric bounds: spool replay delivers legitimately old
	// samples (minutes), so the past bound is loose; nothing
	// legitimate is post-dated, so the future bound is tight.
	if r := v.Check(goodSample(now.Add(-20 * time.Minute))); r != "" {
		t.Errorf("blackout-replay-aged sample rejected: %s", r)
	}
	if r := v.Check(goodSample(now.Add(-2 * time.Hour))); r != "stale_timestamp" {
		t.Errorf("ancient sample: %q, want stale_timestamp", r)
	}
	if r := v.Check(goodSample(now.Add(30 * time.Second))); r != "" {
		t.Errorf("slightly-future sample rejected: %s", r)
	}
	if r := v.Check(goodSample(now.Add(5 * time.Minute))); r != "future_timestamp" {
		t.Errorf("post-dated sample: %q, want future_timestamp", r)
	}
}

func TestSampleValidatorAdmitQuarantinesAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	v := NewSampleValidator("agent", 4)
	v.Metrics = NewMetrics(reg)

	good := goodSample(j0)
	if !v.Admit(&good) {
		t.Fatal("good sample rejected")
	}
	bad := goodSample(j0)
	bad.CPI = math.NaN()
	for i := 0; i < 6; i++ {
		bad.Task.Index = i
		if v.Admit(&bad) {
			t.Fatal("bad sample admitted")
		}
	}
	if v.Quarantine.Total() != 6 {
		t.Errorf("quarantine total = %d, want 6", v.Quarantine.Total())
	}
	recent := v.Quarantine.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("retained = %d, want ring cap 4", len(recent))
	}
	// Ring keeps the newest, oldest first.
	for i, qs := range recent {
		if qs.Sample.Task.Index != i+2 {
			t.Errorf("recent[%d].Index = %d, want %d", i, qs.Sample.Task.Index, i+2)
		}
		if qs.Reason != "non_finite_cpi" || qs.Source != "agent" {
			t.Errorf("recent[%d] = %+v", i, qs)
		}
	}
	if got := v.Quarantine.Recent(2); len(got) != 2 || got[1].Sample.Task.Index != 5 {
		t.Errorf("Recent(2) = %+v", got)
	}
}

func TestSampleValidatorFilter(t *testing.T) {
	v := NewSampleValidator("test", 8)
	in := make([]model.Sample, 0, 5)
	for i := 0; i < 5; i++ {
		s := goodSample(j0)
		s.Task.Index = i
		if i%2 == 1 {
			s.CPI = math.Inf(1)
		}
		in = append(in, s)
	}
	out := v.Filter(in)
	if len(out) != 3 {
		t.Fatalf("survivors = %d, want 3", len(out))
	}
	for i, s := range out {
		if s.Task.Index != i*2 {
			t.Errorf("out[%d].Index = %d", i, s.Task.Index)
		}
	}
	if v.Quarantine.Total() != 2 {
		t.Errorf("quarantined = %d", v.Quarantine.Total())
	}
}

// FuzzSampleValidator asserts the validator never panics and never
// admits a sample that would poison spec statistics (NaN/Inf/negative
// CPI or usage).
func FuzzSampleValidator(f *testing.F) {
	f.Add("search", "intel", int64(1320148800), 1.5, 2.0)
	f.Add("", "", int64(0), math.NaN(), math.Inf(1))
	f.Add("j", "p", int64(-1), -5.0, 1e300)
	f.Fuzz(func(t *testing.T, job, platform string, unix int64, usage, cpi float64) {
		v := NewSampleValidator("fuzz", 4)
		v.Now = func() time.Time { return time.Unix(1320148800, 0).UTC() }
		s := model.Sample{
			Job:      model.JobName(job),
			Task:     model.TaskID{Job: model.JobName(job), Index: 0},
			Platform: model.Platform(platform),
			CPUUsage: usage,
			CPI:      cpi,
		}
		if unix != 0 {
			s.Timestamp = time.Unix(unix, 0).UTC()
		}
		if v.Admit(&s) {
			if s.Job == "" || s.Platform == "" || s.Timestamp.IsZero() {
				t.Fatalf("admitted structurally invalid sample %+v", s)
			}
			if math.IsNaN(s.CPI) || math.IsInf(s.CPI, 0) || s.CPI < 0 ||
				math.IsNaN(s.CPUUsage) || math.IsInf(s.CPUUsage, 0) || s.CPUUsage < 0 {
				t.Fatalf("admitted garbage sample %+v", s)
			}
		} else {
			_ = fmt.Sprintf("%v", v.Quarantine.Recent(1)) // ring must stay renderable
		}
	})
}
