package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// daemonLayerMetrics turns the traced rounds, the server's wire
// counters and the no-wire replays into the per-layer metrics of a
// daemon workload.
func daemonLayerMetrics(cfg daemonConfig, g *generated, w *daemonWindow, ms *metricSet, o *outcome) error {
	perRound := float64(g.cfg.samplesPerRound())
	var publishNs, drainMs, ingestMs, traced, untraced []float64
	var recomputeMs, pushMs, fanoutMs, toSpecMs, pairNs, pushAllocs []float64
	var refreshWall, wall time.Duration
	pairs := float64(cfg.watchers + loadWidth())
	for i, rt := range w.rounds {
		publishNs = append(publishNs, float64(rt.publishNs)/perRound)
		drainMs = append(drainMs, ms64(rt.drain))
		ingestMs = append(ingestMs, ms64(rt.publish+rt.drain))
		if i%2 == 0 {
			traced = append(traced, ms64(rt.total))
		} else {
			untraced = append(untraced, ms64(rt.total))
		}
		wall += rt.total
		if !rt.refreshed {
			continue
		}
		refreshWall += rt.recompute + rt.push + rt.fanout
		recomputeMs = append(recomputeMs, ms64(rt.recompute))
		pushMs = append(pushMs, ms64(rt.push))
		fanoutMs = append(fanoutMs, ms64(rt.fanout))
		toSpecMs = append(toSpecMs, ms64(rt.drain+rt.recompute+rt.push+rt.fanout))
		if rt.specs > 0 {
			pairNs = append(pairNs, float64(rt.push)/(float64(rt.specs)*pairs))
			pushAllocs = append(pushAllocs, float64(rt.pushMem.mallocs)/float64(rt.specs))
		}
	}
	ms.setP50("pipeline.client_publish_ns_per_sample", publishNs, 1)
	ms.setP50("pipeline.server_drain_wait_ms", drainMs, 1)
	ms.setP50("pipeline.ingest_round_p50_ms", ingestMs, 1)
	ms.set("pipeline.ingest_round_p95_ms", percentile(sortedCopy(ingestMs), 95), len(ingestMs))
	ms.setP50("core.spec_recompute_ms", recomputeMs, 1)
	ms.setP50("pipeline.push_call_ms", pushMs, 1)
	ms.setP50("pipeline.push_ns_per_pair", pairNs, 1)
	ms.setP50("pipeline.fanout_wait_ms", fanoutMs, 1)
	ms.setP50("pipeline.allocs_per_spec_push", pushAllocs, 1)
	ms.setP50("pipeline.sample_to_spec_p50_ms", toSpecMs, 1)
	ms.set("pipeline.sample_to_spec_p90_ms", percentile(sortedCopy(toSpecMs), 90), len(toSpecMs))
	ms.set("pipeline.wire_bytes_per_sample", w.bytesIn/float64(w.samples), len(w.rounds))
	if w.specFrames > 0 {
		ms.set("pipeline.wire_bytes_per_spec", w.bytesOut/float64(w.specFrames), int(w.specFrames))
	}
	ms.set("pipeline.allocs_per_sample", float64(w.allocs.mallocs)/float64(w.samples), len(w.rounds))
	if len(untraced) > 0 {
		ms.set("bench.trace_overhead_ratio", median(traced)/median(untraced), len(traced))
	}
	o.note("spec refresh (recompute + push + fan-out) took %.1f%% of the measured wall",
		100*float64(refreshWall)/float64(wall))
	o.note("client_publish + server_drain_wait p50 = %.3f ms of a %.3f ms ingest round",
		median(publishPhaseMs(w.rounds))+median(drainMs), median(ingestMs))

	// The same generated batches, no wire: what is left of a round's
	// per-sample cost once encode, TCP and decode are taken away.
	fold := replayBusFold(g)
	ms.setP50("pipeline.bus_fold_ns_per_sample", fold, 1)
	ms.set("pipeline.wire_ns_per_sample", median(ingestMs)*1e6/perRound-median(fold), len(ingestMs))
	ms.setP50("core.validate_ns_per_sample", replayValidate(g), 1)
	ms.setP50("core.add_sample_ns", replayAddSample(g), 1)
	router, err := replayRouter(g)
	if err != nil {
		return err
	}
	ms.setP50("pipeline.router_ns_per_sample", router, 1)
	return nil
}

func publishPhaseMs(rounds []roundTimes) []float64 {
	out := make([]float64, len(rounds))
	for i, rt := range rounds {
		out[i] = ms64(rt.publish)
	}
	return out
}

// replayPasses is how many times each no-wire replay goes over the
// generated rounds; each pass over one round is one observation.
const replayPasses = 3

// eachRound calls f once per generated round per pass and returns the
// per-sample cost of each call in nanoseconds.
func eachRound(g *generated, f func(batches [][]model.Sample)) []float64 {
	perRound := float64(g.cfg.samplesPerRound())
	var out []float64
	for pass := 0; pass < replayPasses; pass++ {
		for _, batches := range g.rounds {
			t0 := time.Now()
			f(batches)
			out = append(out, float64(time.Since(t0))/perRound)
		}
	}
	return out
}

func newReplayBus() *pipeline.Bus {
	bus := pipeline.NewBus(core.NewSpecBuilder(daemonParams))
	bus.SetValidator(core.NewSampleValidator("aggregator", 256))
	return bus
}

// replayBusFold pushes the batches straight into a validating bus.
func replayBusFold(g *generated) []float64 {
	bus := newReplayBus()
	return eachRound(g, func(batches [][]model.Sample) {
		_ = bus.PublishBatches(batches) // the bus counts rejects; it never errors
	})
}

// replayValidate runs only the ingress validator's check.
func replayValidate(g *generated) []float64 {
	v := core.NewSampleValidator("aggregator", 256)
	var rejected int
	out := eachRound(g, func(batches [][]model.Sample) {
		for _, b := range batches {
			for _, s := range b {
				if v.Check(s) != "" {
					rejected++
				}
			}
		}
	})
	if rejected > 0 {
		panic(fmt.Sprintf("bench: generator produced %d invalid samples", rejected))
	}
	return out
}

// replayAddSample runs only the spec builder's fold.
func replayAddSample(g *generated) []float64 {
	b := core.NewSpecBuilder(daemonParams)
	return eachRound(g, func(batches [][]model.Sample) {
		for _, batch := range batches {
			for _, s := range batch {
				_ = b.AddSample(s) // generated samples are valid (replayValidate)
			}
		}
	})
}

// replayRouter partitions the batches over a four-member ring into four
// in-process buses — the sharded deployment's extra hop.
func replayRouter(g *generated) ([]float64, error) {
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	sinks := make(map[string]pipeline.SampleSink, len(members))
	for _, m := range members {
		sinks[m] = newReplayBus()
	}
	router, err := pipeline.NewRouter(pipeline.NewRing(members, 0), sinks)
	if err != nil {
		return nil, err
	}
	return eachRound(g, func(batches [][]model.Sample) {
		for _, b := range batches {
			_ = router.Publish(b) // in-process buses never error
		}
	}), nil
}
