package cluster

import (
	"maps"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs/trace"
)

// retentionRun runs about 20 machines with default tracing for a
// simulated day — a warm-up, specs, an antagonist wave that detects and
// caps — and returns how many spans each store holds after hour 1 and
// after hour 24, the number of spec keys, the cluster's SpanCounts and
// its number of incidents. unbounded lifts every store's horizon, so
// only capacity bounds them.
func retentionRun(t *testing.T, unbounded bool) (hour1, hour24 []int, keys int, counts map[string]uint64, incidents int) {
	t.Helper()
	const machines = 20
	c := New(Config{
		Seed:           5,
		Machines:       machines,
		CPUsPerMachine: 16,
		Workers:        2,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: 6 * time.Hour},
	})
	defer c.Close()
	stores := []*trace.Store{c.AggregatorTrace()}
	for _, n := range c.nodes {
		stores = append(stores, n.trace)
	}
	if unbounded {
		for _, st := range stores {
			st.SetHorizon(0)
		}
	}
	held := func() []int {
		out := make([]int, len(stores))
		for i, st := range stores {
			out[i] = len(st.Recent(0))
		}
		return out
	}
	for _, d := range []JobDef{
		QuietServiceJob("bigtable", 2*machines, 0.8),
		BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort),
	} {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", machines/2, 9, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Minute)
	hour1 = held()
	c.Run(23 * time.Hour)
	return hour1, held(), len(c.AllSpecs()), c.SpanCounts(), len(c.Incidents())
}

// TestTraceRetentionFlatOverADay: with the default horizon a store holds
// no more spans after a simulated day than after an hour, give or take
// one per spec key and spec stage (the newest spec spans, which stay
// however old); and what the run records is what it records with no
// horizon at all.
func TestTraceRetentionFlatOverADay(t *testing.T) {
	hour1, hour24, keys, counts, incidents := retentionRun(t, false)
	if incidents == 0 || counts[trace.StageSpecRecv] == 0 {
		t.Fatalf("the run raises no incidents (%d) or records no spec_recv spans: %v", incidents, counts)
	}
	for i := range hour1 {
		specStages := 1 // spec_recv on a machine
		if i == 0 {
			specStages = 2 // spec_build and spec_push on the aggregator
		}
		if hour24[i] > hour1[i]+specStages*keys {
			t.Errorf("store %d holds %d spans at hour 24, %d at hour 1 (%d spec keys)", i, hour24[i], hour1[i], keys)
		}
	}
	_, unbounded, _, want, _ := retentionRun(t, true)
	if !maps.Equal(counts, want) {
		t.Errorf("SpanCounts %v, %v with no horizon", counts, want)
	}
	if unbounded[1] <= hour24[1] {
		t.Errorf("with no horizon machine 0's store holds %d spans at hour 24, %d with one: the run never passes the horizon", unbounded[1], hour24[1])
	}
}
