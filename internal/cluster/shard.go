package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// The spec tier. The aggregator is Config.Shards ≥ 1 shards behind a
// consistent-hash ring over job×platform keys: each shard runs its own
// bus + SpecBuilder and owns a stable subset of keys. Failure domains
// shrink with the shard count — a shard blackout stalls only its own
// keys' specs — and a reshard event (N→M) hands off exactly the moved
// keys' builder state through the checkpoint-format handoff frame
// (core.ExportKeys/ImportCheckpoint), which preserves byte-identical
// specs across the split.
//
// Everything here runs in the serial commit phase, so routing, ring
// swaps, and handoffs are as worker-count-independent as the rest of
// the cluster.

// shardPrefix + number is a shard's ring member name — the sim's
// analogue of an aggregator address, and the names a real deployment's
// -ring flag would carry.
const shardPrefix = "shard-"

func shardName(s int) string { return shardPrefix + strconv.Itoa(s) }

// ShardOf returns the number of the shard owning key under the live
// ring: the s of ShardBus(s) and of shardblackout=s@…. The ring orders
// members as strings ("shard-10" before "shard-2"), so a member's
// position in Ring().Members() is not its shard number; everything in
// the sim goes from key to shard through the member NAME, here.
func (c *Cluster) ShardOf(key model.SpecKey) int {
	// Members are shardName(s) by construction, so this cannot fail.
	s, _ := strconv.Atoi(strings.TrimPrefix(c.ring.Owner(key), shardPrefix))
	return s
}

// shardMembers builds the ring membership for n shards.
func shardMembers(n int) []string {
	out := make([]string, n)
	for s := range out {
		out[s] = shardName(s)
	}
	return out
}

// growBuses adds shard aggregators (bus + builder named shardName(s),
// with the cluster's trace/metrics/validator wiring, watched by every
// agent) until there are n. A shard joining a running tier adopts the
// recompute cadence of shard 0, so every shard keeps recomputing on
// the same ticks — the spec-equivalence guarantee depends on a shared
// recompute schedule; adoption goes through an empty handoff frame,
// exercising the same ImportCheckpoint path a real shard bootstrap
// uses.
func (c *Cluster) growBuses(n int) {
	for len(c.buses) < n {
		bus := pipeline.NewBus(core.NewSpecBuilder(c.cfg.Params))
		bus.SetShard(shardName(len(c.buses)))
		bus.SetTrace(c.aggTrace)
		if c.cfg.Registry != nil {
			bus.SetMetrics(pipeline.NewMetrics(c.cfg.Registry))
			bus.Builder().SetMetrics(core.NewMetrics(c.cfg.Registry))
		}
		bus.SetValidator(c.validator)
		if len(c.buses) > 0 {
			if last := c.buses[0].Builder().LastRecompute(); !last.IsZero() {
				cp := core.Checkpoint{Version: core.CheckpointVersion, LastRecompute: last}
				if err := bus.Builder().ImportCheckpoint(cp); err != nil {
					panic(fmt.Sprintf("cluster: reshard cadence adoption: %v", err))
				}
			}
		}
		for _, nd := range c.nodes {
			bus.Watch(nd.a)
		}
		c.buses = append(c.buses, bus)
	}
}

// wireSamplePath builds the ring over n shards and, for every node,
// the router → per-shard spool → chaos link → shard bus chain behind
// its queue. New and applyReshard both call it, so a resharded fleet is
// wired exactly as one that started with n shards. The spools are
// drained passively from the commit phase (never Started), so the whole
// chain stays deterministic; spool-replay spans land in the owning
// machine's store. No registry instrumentation on the spools: many
// spools sharing one gauge would fight over Set; FaultStats aggregates
// instead.
func (c *Cluster) wireSamplePath(n int) {
	c.shards = n
	members := shardMembers(n)
	c.ring = pipeline.NewRing(members, pipeline.DefaultVnodes)
	// Surviving shards keep their blackout state; new ones start up.
	down := make([]bool, n)
	copy(down, c.shardDown)
	c.shardDown = down
	for i, nd := range c.nodes {
		// Links are new, and so are their reconnect windows.
		nd.links = make([]*chaosLink, n)
		sinks := make(map[string]pipeline.SampleSink, n)
		for s := range nd.links {
			l := &chaosLink{c: c, machine: i, shard: s}
			l.spool = pipeline.NewSpooler(l, pipeline.SpoolConfig{
				MaxBatches: c.cfg.Faults.SpoolBatches,
				MaxBytes:   c.cfg.Faults.SpoolBytes,
			})
			l.spool.SetTrace(nd.trace)
			nd.links[s] = l
			sinks[members[s]] = l.spool
		}
		router, err := pipeline.NewRouter(c.ring, sinks)
		if err != nil {
			panic(err) // one sink per member by construction: cannot happen
		}
		nd.router = router
	}
}

// sortSpecsByKey sorts specs by (job, platform) — the publish order of
// a single builder, which the merged multi-shard views reproduce.
func sortSpecsByKey(specs []model.Spec) {
	slices.SortFunc(specs, func(a, b model.Spec) int { return a.Key().Compare(b.Key()) })
}

// applyReshard executes one live reshard event (the live shard count →
// newShards) in the serial commit phase:
//
//  1. New shards (grow) get fresh buses (see growBuses).
//  2. The sample path is rewired over the new ring, and ONLY moved
//     keys' builder state is handed off, shard-by-shard in index order,
//     via ExportKeys → ImportCheckpoint (the checkpoint machinery). An
//     import error is a bug (split-brain ownership) and panics.
//  3. Retiring shards (shrink) hand off everything; their pipeline
//     stats carry over so fleet totals never go backwards.
//  4. Spooled-but-undelivered batches are lifted out of the old spools
//     and re-routed through the new routers in machine-index order,
//     preserving per-key arrival order (the only order specs depend
//     on). They count as neither replayed nor dropped; a batch whose
//     new shard is down simply spools there.
func (c *Cluster) applyReshard(newShards int) {
	oldShards := c.shards
	nowT := c.now

	// Phase 1: grow the bus set.
	c.growBuses(newShards)

	// Phase 2: swap in the new ring's sample path and hand off moved
	// keys. Old shards are visited in index order and Keys() is sorted,
	// so the handoff sequence is deterministic.
	oldLinks := make([][]*chaosLink, len(c.nodes))
	for i, n := range c.nodes {
		oldLinks[i] = n.links
	}
	c.wireSamplePath(newShards)
	moved := 0
	for os := 0; os < oldShards; os++ {
		b := c.buses[os].Builder()
		byDest := make([][]model.SpecKey, newShards)
		for _, k := range b.Keys() {
			if d := c.ShardOf(k); d != os {
				byDest[d] = append(byDest[d], k)
			}
		}
		for d, ks := range byDest {
			if len(ks) == 0 {
				continue
			}
			frame := b.ExportKeys(ks, nowT)
			if err := c.buses[d].Builder().ImportCheckpoint(frame); err != nil {
				panic(fmt.Sprintf("cluster: reshard handoff %s→%s: %v", shardName(os), shardName(d), err))
			}
			moved += len(ks)
		}
	}

	// Phase 3: retire shrunk-away buses, carrying their stats. A retired
	// bus still holds every agent's registration; uninstrumenting it
	// takes them back out of the shared watcher gauge.
	for os := newShards; os < oldShards; os++ {
		r, d := c.buses[os].Stats()
		c.pipeCarryRecv += r
		c.pipeCarryDrop += d
		c.buses[os].SetMetrics(nil)
	}
	c.buses = c.buses[:newShards]

	// Phase 4: re-route the old spools' backlog.
	for i, links := range oldLinks {
		for _, old := range links {
			// The retired spool's lifetime counters fold into the
			// cumulative stats so FaultStats never goes backwards.
			st := old.spool.Stats()
			c.fstats.SpoolDropped += st.Dropped
			c.fstats.SpoolReplayed += st.Replayed
			for _, batch := range old.spool.TakeAll() {
				_ = c.nodes[i].router.Publish(batch)
			}
		}
	}
	c.fstats.ReshardsApplied++
	c.fstats.MovedKeys += moved
	c.cfg.Events.Emit(nowT, "reshard", map[string]any{
		"from": oldShards, "to": newShards, "moved_keys": moved,
	})
}
