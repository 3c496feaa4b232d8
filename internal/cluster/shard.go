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
func (c *Cluster) ShardOf(key model.SpecKey) int { return shardNumber(c.ring.Owner(key)) }

// shardNumber is the s of the member named shardName(s). Members are
// shard names by construction, so this cannot fail.
func shardNumber(member string) int {
	s, _ := strconv.Atoi(strings.TrimPrefix(member, shardPrefix))
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

// wireSamplePath puts the spec tier on the ring of n shards, the way
// the daemons build it: the shards already running are given the new
// ring, shards are added with pipeline.NewShardBus (watched by every
// agent) until there are n, and every node gets a new
// pipeline.NewEgress over the ring — router, per-shard spool, chaos
// link to the shard's bus. New and applyReshard both call it, so a
// resharded fleet is wired exactly as one that started with n shards.
//
// A shard joining a running tier adopts the recompute cadence of shard
// 0, so every shard keeps recomputing on the same ticks — the
// spec-equivalence guarantee depends on a shared recompute schedule;
// adoption goes through an empty handoff frame, exercising the same
// ImportCheckpoint path a real shard bootstrap uses.
//
// The spools are drained passively from the commit phase (never
// Started), so the whole chain stays deterministic; spool-replay spans
// land in the owning machine's store. No registry instrumentation on
// the spools: FaultStats aggregates them instead.
func (c *Cluster) wireSamplePath(n int) {
	c.ring = pipeline.NewRing(shardMembers(n), pipeline.DefaultVnodes)
	// Surviving shards keep their blackout state; new ones start up.
	down := make([]bool, n)
	copy(down, c.shardDown)
	c.shardDown = down
	for _, bus := range c.buses[:min(len(c.buses), n)] {
		if err := bus.SetRing(c.ring); err != nil {
			panic(err) // shards 0..n-1 are the ring's members: cannot happen
		}
	}
	for len(c.buses) < n {
		bus, err := pipeline.NewShardBus(c.cfg.Params, shardName(len(c.buses)), c.ring,
			c.cfg.Registry, c.aggTrace, c.validator)
		if err != nil {
			panic(err) // as above
		}
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
	spool := pipeline.SpoolConfig{MaxBatches: c.cfg.Faults.SpoolBatches, MaxBytes: c.cfg.Faults.SpoolBytes}
	for i, nd := range c.nodes {
		// Links are new, and so are their reconnect windows.
		eg, err := pipeline.NewEgress(c.ring, spool, nil, nd.trace, func(member string, _ func()) *chaosLink {
			return &chaosLink{c: c, machine: i, shard: shardNumber(member)}
		})
		if err != nil {
			panic(err) // a non-empty ring: cannot happen
		}
		nd.egress = eg
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
//  1. The tier moves onto the new ring (see wireSamplePath): surviving
//     shards check ownership against it, new shards (grow) get fresh
//     buses, and every machine a new egress.
//  2. ONLY moved keys' builder state is handed off, shard-by-shard in
//     index order, via ExportKeys → ImportCheckpoint (the checkpoint
//     machinery). An import error is a bug (split-brain ownership) and
//     panics.
//  3. Retiring shards (shrink) hand off everything; their pipeline
//     stats carry over so fleet totals never go backwards.
//  4. Spooled-but-undelivered batches are lifted out of the old spools
//     and re-routed through the new egresses in machine-index order,
//     preserving per-key arrival order (the only order specs depend
//     on). They count as neither replayed nor dropped; a batch whose
//     new shard is down simply spools there.
func (c *Cluster) applyReshard(newShards int) {
	oldShards := c.ring.Size()
	nowT := c.now

	// Phase 1: the new ring, buses and egresses.
	oldEgress := make([]*pipeline.Egress[*chaosLink], len(c.nodes))
	for i, n := range c.nodes {
		oldEgress[i] = n.egress
	}
	c.wireSamplePath(newShards)

	// Phase 2: hand off moved keys. Old shards are visited in index
	// order and Keys() is sorted, so the handoff sequence is
	// deterministic.
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
	for i, old := range oldEgress {
		// The retired spools' lifetime counters fold into the
		// cumulative stats so FaultStats never goes backwards.
		st := old.Stats()
		c.fstats.SpoolDropped += st.Dropped
		c.fstats.SpoolReplayed += st.Replayed
		n := c.nodes[i]
		for _, batch := range old.TakeAll() {
			_ = n.egress.Publish(batch)
		}
		n.backlog = n.egress.Len() > 0
	}
	c.fstats.ReshardsApplied++
	c.fstats.MovedKeys += moved
	c.cfg.Events.Emit(nowT, "reshard", map[string]any{
		"from": oldShards, "to": newShards, "moved_keys": moved,
	})
}
