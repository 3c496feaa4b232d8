package main

import (
	"testing"

	"repro/internal/cluster"
)

// TestLanded: the line before the run names what the scenario's
// after-warm-up entries land, not a fixed claim.
func TestLanded(t *testing.T) {
	var sc cluster.Scenario
	if err := cluster.DecodeStrict(defaultScenario, &sc); err != nil {
		t.Fatal(err)
	}
	if got, want := landed(sc.Workload), "landed after the warm-up: video-transcode (13 tasks)"; got != want {
		t.Errorf("default scenario: %q, want %q", got, want)
	}
	yes, no := true, false
	mixed := []cluster.WorkloadEntry{
		{Kind: "antagonist", Name: "hog", Tasks: 4, AfterWarmup: &no},
		{Kind: "websearch", Name: "ws", Leaves: 6, Mixers: 2, Roots: 1, AfterWarmup: &yes},
		{Kind: "batch", Name: "late", Tasks: 3, AfterWarmup: &yes},
	}
	want := "landed after the warm-up: ws-leaf (6 tasks), ws-mixer (2 tasks), ws-root (1 task), late (3 tasks)"
	if got := landed(mixed); got != want {
		t.Errorf("mixed scenario: %q, want %q", got, want)
	}
	if got, want := landed(mixed[:1]), "nothing lands after the warm-up"; got != want {
		t.Errorf("nothing after the warm-up: %q, want %q", got, want)
	}
}
