package agent

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
	"repro/internal/perfcnt"
)

// TestToSamplesTracedAllocatesAsUntraced: building a sample batch makes
// as many allocations with tracing on as with it off — the batch's trace
// id string, which the samples carry either way. The sample span is a
// record.
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
	if on := testing.AllocsPerRun(100, build); on != off {
		t.Errorf("a traced batch costs %v allocations, an untraced one %v", on, off)
	}
	if st.StageCount(trace.StageSample) != 64+101 {
		t.Errorf("%d sample spans, want %d", st.StageCount(trace.StageSample), 64+101)
	}
}
