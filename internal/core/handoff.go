package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/model"
)

// Handoff: live resharding moves a subset of a SpecBuilder's keys to
// another builder using the checkpoint format as the wire frame.
// Because every per-key aggregate (pending Welford moments, the
// age-weighted history, the published spec) is independent of every
// other key's, exporting a key from one builder and importing it into
// another — then recomputing both at the same instant — produces
// byte-identical specs to never having moved it. That property is what
// lets a 1→4 shard split (or any ring change) promise spec equivalence
// instead of merely eventual convergence; handoff_test.go pins it.

// ExportKeys removes the given keys' state — history, pending
// interval, and published spec — from b and returns it as a
// Checkpoint stamped with now. Keys the builder does not know are
// silently absent from the result (a reshard computes the moved-key
// set from ring membership, which may be a superset of what this
// builder has seen). The returned frame carries the builder's
// LastRecompute so the importer can adopt the recompute cadence.
func (b *SpecBuilder) ExportKeys(keys []model.SpecKey, now time.Time) Checkpoint {
	only := make(map[model.SpecKey]bool, len(keys))
	for _, k := range keys {
		only[k] = true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cp := b.checkpointLocked(now, only)
	var backlog int64
	for k := range only {
		if i, ok := b.index[k]; ok {
			backlog += b.slots[i].pending.cpi.N()
			b.release(i)
		}
	}
	b.moveBacklog(-backlog)
	return cp
}

// ImportCheckpoint merges cp's keys into b. It is all-or-nothing: a
// malformed frame (parseCheckpoint rules) or a key collision with
// state b already holds is an error that leaves b untouched —
// ownership of a key lives on exactly one shard, so a collision means
// the ring diff and the handoff disagree, and silently overwriting
// either side would corrupt a spec. An empty builder adopts the
// frame's LastRecompute, so a freshly created shard recomputes on the
// donor's cadence instead of immediately; a fresh builder therefore
// ends up with exactly cp's state, backlog and LastRecompute, which is
// how a restarted aggregator restores its checkpoint.
func (b *SpecBuilder) ImportCheckpoint(cp Checkpoint) error {
	history, pending, specs, err := parseCheckpoint(cp)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range history {
		if s := b.lookup(k); s != nil && s.has&hasHistory != 0 {
			return fmt.Errorf("core: handoff import: history for %s already present", k)
		}
	}
	for k := range pending {
		if s := b.lookup(k); s != nil && s.has&hasPending != 0 {
			return fmt.Errorf("core: handoff import: pending for %s already present", k)
		}
	}
	for k := range specs {
		if s := b.lookup(k); s != nil && s.has&hasSpec != 0 {
			return fmt.Errorf("core: handoff import: spec for %s already present", k)
		}
	}
	for k, h := range history {
		s := &b.slots[b.slotFor(k)]
		s.history, s.has = h, s.has|hasHistory
	}
	var backlog int64
	for k, agg := range pending {
		s := &b.slots[b.slotFor(k)]
		s.pending, s.has = agg, s.has|hasPending
		backlog += agg.cpi.N()
	}
	for k, spec := range specs {
		s := &b.slots[b.slotFor(k)]
		s.spec, s.has = spec, s.has|hasSpec
	}
	if b.lastRecompute.IsZero() {
		b.lastRecompute = cp.LastRecompute
	}
	b.moveBacklog(backlog)
	return nil
}

// Keys returns every key the builder holds state for — the union of
// history, pending, and published specs — sorted by (job, platform).
// Resharding diffs ring ownership over exactly this set.
func (b *SpecBuilder) Keys() []model.SpecKey {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]model.SpecKey, 0, len(b.index))
	for k := range b.index {
		out = append(out, k)
	}
	slices.SortFunc(out, model.SpecKey.Compare)
	return out
}

// LastRecompute returns when the builder last recomputed (zero before
// the first recompute). The /debug/ring endpoint reports it as the
// shard's spec freshness.
func (b *SpecBuilder) LastRecompute() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastRecompute
}
