package model

import (
	"math"
	"testing"
)

func TestTaskIDString(t *testing.T) {
	id := TaskID{Job: "websearch-leaf", Index: 42}
	if got := id.String(); got != "websearch-leaf/42" {
		t.Errorf("String = %q", got)
	}
}

func TestPriorityString(t *testing.T) {
	cases := map[Priority]string{
		PriorityBestEffort: "best-effort",
		PriorityBatch:      "batch",
		PriorityProduction: "production",
		Priority(99):       "priority(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if !PriorityProduction.IsProduction() || PriorityBatch.IsProduction() {
		t.Error("IsProduction wrong")
	}
}

func TestJobClassString(t *testing.T) {
	if ClassBatch.String() != "batch" || ClassLatencySensitive.String() != "latency-sensitive" {
		t.Error("JobClass.String wrong")
	}
}

func TestJobPolicy(t *testing.T) {
	ls := Job{Name: "search", Class: ClassLatencySensitive, Priority: PriorityProduction}
	batch := Job{Name: "mr", Class: ClassBatch, Priority: PriorityBatch}
	be := Job{Name: "bg", Class: ClassBatch, Priority: PriorityBestEffort}
	optIn := Job{Name: "special-batch", Class: ClassBatch, ProtectionEligible: true}

	if !ls.Protected() || batch.Protected() {
		t.Error("Protected policy wrong")
	}
	if !optIn.Protected() {
		t.Error("explicit opt-in should be protected")
	}
	if ls.Throttleable() {
		t.Error("latency-sensitive jobs must never be throttled")
	}
	if !batch.Throttleable() || !be.Throttleable() {
		t.Error("batch jobs must be throttleable")
	}
}

func TestSpecOutlierThreshold(t *testing.T) {
	s := Spec{CPIMean: 1.8, CPIStddev: 0.16}
	if got := s.OutlierThreshold(2); math.Abs(got-2.12) > 1e-12 {
		t.Errorf("2σ threshold = %v", got)
	}
	if got := s.OutlierThreshold(3); math.Abs(got-2.28) > 1e-12 {
		t.Errorf("3σ threshold = %v", got)
	}
}

func TestSpecRobust(t *testing.T) {
	// The paper's gates: ≥5 tasks and ≥100 samples per task.
	cases := []struct {
		name string
		spec Spec
		want bool
	}{
		{"plenty", Spec{NumTasks: 100, NumSamples: 100000}, true},
		{"exactly at gates", Spec{NumTasks: 5, NumSamples: 500}, true},
		{"too few tasks", Spec{NumTasks: 4, NumSamples: 100000}, false},
		{"too few samples", Spec{NumTasks: 10, NumSamples: 999}, false},
		{"zero tasks", Spec{NumTasks: 0, NumSamples: 1000}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.spec.Robust(5, 100); got != c.want {
				t.Errorf("Robust = %v, want %v", got, c.want)
			}
		})
	}
}

func TestSpecKey(t *testing.T) {
	s := Spec{Job: "j", Platform: PlatformB}
	k := s.Key()
	if k.Job != "j" || k.Platform != PlatformB {
		t.Errorf("Key = %+v", k)
	}
	if k.String() != "j@amd-interlagos-2.1GHz" {
		t.Errorf("Key.String = %q", k.String())
	}
}
