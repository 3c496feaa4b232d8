package agent

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/perfcnt"
)

// TestToSamplesTracedAllocatesAsUntraced: building a warm sample batch
// allocates nothing, with tracing on or off: the samples carry the
// batch's trace id as a value, and the sample span is a record.
func TestToSamplesTracedAllocatesAsUntraced(t *testing.T) {
	a, _, vid := newRig(t, nil)
	ms := []perfcnt.Measurement{{Task: vid, CPUUsage: 1.2, CPI: 1.1}}
	now := t0
	build := func() {
		now = now.Add(time.Minute)
		if got := a.toSamples(now, ms); len(got) != 1 {
			t.Fatalf("%d samples from one measurement", len(got))
		}
	}
	build()
	off := testing.AllocsPerRun(100, build)
	st := trace.NewStore(0)
	st.SetHorizon(core.DefaultParams().LookBack())
	a.SetTrace(st)
	for i := 0; i < 64; i++ { // past the horizon: the store holds what it will
		build()
	}
	if on := testing.AllocsPerRun(100, build); on != 0 || off != 0 {
		t.Errorf("a traced batch costs %v allocations, an untraced one %v; want 0", on, off)
	}
	if st.StageCount(trace.StageSample) != 64+101 {
		t.Errorf("%d sample spans, want %d", st.StageCount(trace.StageSample), 64+101)
	}
}
