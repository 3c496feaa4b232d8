package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func init() {
	register("ext-shardloss", extShardLoss)
}

// extShardLoss measures how a sharded spec tier degrades when one
// shard blacks out mid-run. The fleet hashes job×platform keys over a
// 4-shard ring; a mixed-platform fleet puts the same service's two
// platform keys on DIFFERENT shards, so the service's victims are
// labelled per shard by construction. Blacking out the shard that owns
// the PlatformA key must leave detection everywhere intact (machine-
// local detection runs from the last pushed specs), cap nothing
// innocent, drop nothing from spools, and replay in order on recovery
// — the blast radius is spec staleness for the dead shard's keys,
// nothing else.
func extShardLoss(o Options) (*Report, error) {
	machines := o.scaleInt(200, 24)
	const shards = 4
	warm := 15 * time.Minute
	blackout := 10 * time.Minute
	dur := blackout + 12*time.Minute
	from := warm + 2*time.Minute

	// Aim the blackout at whichever shard owns the victim service's
	// PlatformA key. The ring is a pure function of membership, so a
	// one-machine probe cluster reads the ownership map cheaply.
	probe := cluster.New(cluster.Config{Seed: o.Seed, Machines: 1, Shards: shards})
	epoch := probe.Now()
	down := probe.ShardOf(model.SpecKey{Job: "bigtable", Platform: model.PlatformA})
	probe.Close()

	run := func(faults *cluster.FaultPlan) (*cluster.Cluster, error) {
		c := cluster.New(cluster.Config{
			Seed:              o.Seed,
			Machines:          machines,
			CPUsPerMachine:    16,
			PlatformBFraction: 0.5,
			Shards:            shards,
			Params:            core.Params{MinSamplesPerTask: 5},
			Faults:            faults,
		})
		for _, def := range []cluster.JobDef{
			cluster.QuietServiceJob("bigtable", machines*2, 0.8),
			cluster.BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort),
		} {
			if err := c.AddJob(def); err != nil {
				c.Close()
				return nil, err
			}
		}
		if _, err := cluster.WarmUpSpecs(c, warm); err != nil {
			c.Close()
			return nil, err
		}
		// One antagonist per machine: victims surface on BOTH platforms,
		// which is what labels them to different shards (the same job's
		// PlatformA and PlatformB keys hash independently).
		if err := c.AddJob(cluster.AntagonistJob("video", machines, 7, model.PriorityBatch)); err != nil {
			c.Close()
			return nil, err
		}
		c.Run(dur)
		return c, nil
	}

	baseline, err := run(&cluster.FaultPlan{})
	if err != nil {
		return nil, fmt.Errorf("ext-shardloss: baseline: %w", err)
	}
	defer baseline.Close()
	chaos, err := run(&cluster.FaultPlan{
		ShardBlackouts: []cluster.ShardBlackoutEvent{
			{Shard: down, Window: cluster.Window{From: from, To: from + blackout}},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("ext-shardloss: chaos: %w", err)
	}
	defer chaos.Close()

	// Label every blackout-window detection by the shard owning the
	// victim's job×platform key.
	wFrom, wTo := epoch.Add(from), epoch.Add(from+blackout)
	byShard := make([]int, shards)
	falseCaps := 0
	for _, inc := range chaos.Incidents() {
		for _, d := range append([]core.Decision{inc.Decision}, inc.GroupDecisions...) {
			if d.Action == core.ActionCap && d.Target.Job != "video" {
				falseCaps++
			}
		}
		if inc.Time.Before(wFrom) || !inc.Time.Before(wTo) {
			continue
		}
		key := model.SpecKey{Job: inc.VictimJob, Platform: chaos.Machine(inc.Machine).Platform()}
		byShard[chaos.ShardOf(key)]++
	}
	onDead, onHealthy := byShard[down], 0
	for s, n := range byShard {
		if s != down {
			onHealthy += n
		}
	}

	diverged := 0.0
	if len(baseline.Incidents()) != len(chaos.Incidents()) {
		diverged = 1.0
	}
	st := chaos.FaultStats()

	r := &Report{
		ID:    "ext-shardloss",
		Title: "shard-loss degradation: one dead spec shard, scoped blast radius",
		PaperClaim: "the monitoring pipe is at-most-once and detection is machine-local (§6), " +
			"so losing part of the aggregation tier costs spec staleness, not detection or enforcement",
	}
	r.AddMetric("dead_shard_detections", float64(onDead), 0,
		fmt.Sprintf("blackout-window victims on shard %d's keys; >0 = detection survives staleness", down))
	r.AddMetric("healthy_shard_detections", float64(onHealthy), 0,
		"blackout-window victims on live shards' keys; >0 = blast radius scoped")
	r.AddMetric("incident_divergence", diverged, 0,
		"1 if the incident stream differs from the no-fault run (want 0)")
	r.AddMetric("false_caps", float64(falseCaps), 0, "caps on anything but the antagonist (want 0)")
	r.AddMetric("spool_dropped", float64(st.SpoolDropped), 0, "batches lost to spool overflow (want 0)")
	r.AddMetric("spool_replayed", float64(st.SpoolReplayed), 0, "batches replayed in order on shard recovery")

	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d machines, %d shards, shard %d down %v..%v after epoch\n",
		machines, shards, down, from, from+blackout)
	fmt.Fprintf(&b, "blackout-window detections by owning shard:\n")
	for s, n := range byShard {
		tag := ""
		if s == down {
			tag = "  <- blacked out"
		}
		fmt.Fprintf(&b, "  shard %d  %6d%s\n", s, n, tag)
	}
	fmt.Fprintf(&b, "fault stats: %d shard-blackout ticks, %d replayed, %d dropped, %d still spooled\n",
		st.ShardBlackoutTicks, st.SpoolReplayed, st.SpoolDropped, st.SpooledBatches)
	r.Body = b.String()
	return r, nil
}
