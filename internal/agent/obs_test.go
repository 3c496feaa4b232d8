package agent

import (
	"testing"

	"repro/internal/obs"
)

// TestLocalMetricsDrainTo checks the per-machine local agent set folds into
// the shared registry set and is reset by the drain — the contract the
// cluster's serial commit phase relies on.
func TestLocalMetricsDrainTo(t *testing.T) {
	reg := obs.NewRegistry()
	shared := NewMetrics(reg)
	local := NewLocalMetrics()

	local.Tasks.Add(3)
	local.TickSeconds.Observe(0.001)
	local.TickSeconds.Observe(0.002)

	local.DrainTo(shared)

	if got := shared.Tasks.Value(); got != 3 {
		t.Errorf("Tasks = %v, want 3", got)
	}
	if got := shared.TickSeconds.Count(); got != 2 {
		t.Errorf("TickSeconds count = %v, want 2", got)
	}
	if got := local.Tasks.Value(); got != 0 {
		t.Errorf("local Tasks after drain = %v, want 0", got)
	}
	if got := local.TickSeconds.Count(); got != 0 {
		t.Errorf("local TickSeconds count after drain = %v, want 0", got)
	}

	// A task exiting moves the local gauge negative; the delta drain keeps
	// the shared gauge consistent with the fleet total.
	local.Tasks.Dec()
	local.DrainTo(shared)
	if got := shared.Tasks.Value(); got != 2 {
		t.Errorf("Tasks after exit drain = %v, want 2", got)
	}
}
