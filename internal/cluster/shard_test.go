package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// shardRun is chaosRun with a spec-tier shard count and a platform
// split (so job×platform keys spread across the ring): quiet
// latency-sensitive services, batch noise, and a heavy antagonist
// arriving after specs are warm.
func shardRun(t *testing.T, seed int64, machines, shards, workers int, warm, dur time.Duration,
	faults *FaultPlan) *Cluster {
	t.Helper()
	c := New(Config{
		Seed:              seed,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		Shards:            shards,
		Params:            core.Params{MinSamplesPerTask: 5},
		Faults:            faults,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", machines*2, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", machines/3+1, 7, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(dur)
	return c
}

// specEquivalence asserts the two runs agree byte-for-byte on
// everything the sharding contract promises is shard-count-invariant:
// the incident stream, the live spec table, a forced recompute (which
// folds in every post-warm-up sample, so it checks Welford-state
// equivalence, not just spec carryover), and the aggregate pipeline
// counters.
func specEquivalence(t *testing.T, a, b *Cluster, label string) {
	t.Helper()
	ai, _ := json.Marshal(a.Incidents())
	bi, _ := json.Marshal(b.Incidents())
	if string(ai) != string(bi) {
		t.Errorf("%s: incident streams diverge (%d vs %d incidents)", label, len(a.Incidents()), len(b.Incidents()))
	}
	if len(a.Incidents()) == 0 {
		t.Fatalf("%s: no incidents; the comparison is vacuous", label)
	}
	as, _ := json.Marshal(a.AllSpecs())
	bs, _ := json.Marshal(b.AllSpecs())
	if string(as) != string(bs) {
		t.Errorf("%s: live spec tables diverge\n a: %.200s…\n b: %.200s…", label, as, bs)
	}
	if len(a.AllSpecs()) == 0 {
		t.Fatalf("%s: empty spec table; the comparison is vacuous", label)
	}
	ar, _ := json.Marshal(a.RecomputeSpecs())
	br, _ := json.Marshal(b.RecomputeSpecs())
	if string(ar) != string(br) {
		t.Errorf("%s: forced recompute diverges — builder state was not preserved\n a: %.200s…\n b: %.200s…",
			label, ar, br)
	}
	arecv, _ := a.PipelineStats()
	brecv, _ := b.PipelineStats()
	if arecv != brecv {
		t.Errorf("%s: aggregate received counts differ: %d vs %d", label, arecv, brecv)
	}
}

// TestShardRoutingMatchesRing: with Shards=4 every job×platform key
// lands on exactly the shard the consistent-hash ring assigns it — no
// key is double-owned, none is lost, and the per-shard sample counters
// sum to the aggregate.
func TestShardRoutingMatchesRing(t *testing.T) {
	c := shardRun(t, 7, 16, 4, 0, 12*time.Minute, 2*time.Minute, nil)
	if got := c.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	if c.Bus() != c.ShardBus(0) {
		t.Error("Bus() must alias shard 0")
	}
	owner := make(map[model.SpecKey]int)
	total := 0
	for s := 0; s < c.NumShards(); s++ {
		b := c.ShardBus(s).Builder()
		for _, k := range b.Keys() {
			if prev, dup := owner[k]; dup {
				t.Errorf("key %v owned by both shard %d and shard %d", k, prev, s)
			}
			owner[k] = s
			if want := c.ShardOf(k); want != s {
				t.Errorf("key %v on shard %d, but the ring assigns shard %d", k, s, want)
			}
		}
		total += b.KeyCount()
	}
	if total == 0 {
		t.Fatal("no keys anywhere; the routing check is vacuous")
	}
	if len(owner) != total {
		t.Errorf("KeyCount sum %d != %d distinct keys", total, len(owner))
	}
	recv, _ := c.PipelineStats()
	var sum int64
	for s := 0; s < c.NumShards(); s++ {
		r, _ := c.ShardBus(s).Stats()
		sum += r
	}
	if recv == 0 || recv != sum {
		t.Errorf("per-shard received sums to %d, PipelineStats says %d", sum, recv)
	}
}

// pushLog is a spec watcher recording every push's UpdatedAt per key.
// Pushes happen in the serial commit phase, so it needs no lock.
type pushLog map[model.SpecKey][]time.Time

func (p pushLog) WantSpec(model.SpecKey) bool { return true }
func (p pushLog) InterestVersion() uint64     { return 0 }
func (p pushLog) DeliverSpec(spec model.Spec) {
	p[spec.Key()] = append(p[spec.Key()], spec.UpdatedAt)
}

// TestShardNumbersFollowMemberNames runs twelve shards, where the
// ring's member order (sorted as strings: shard-0, shard-1, shard-10,
// shard-11, shard-2, …) stops matching shard numbers. Shard s must
// still be the ring member NAMED shard-s: every key sits in the bus
// whose label equals Ring.Owner(key), and shardblackout=10 stales
// exactly the keys shard-10 owns — the same keys a cpi2aggregator
// started as -shard-id shard-10 would own.
func TestShardNumbersFollowMemberNames(t *testing.T) {
	const shards, down = 12, 10
	warm, interval, blackoutLen := 12*time.Minute, 2*time.Minute, 5*time.Minute
	bl := Window{From: warm + 3*time.Minute, To: warm + 3*time.Minute + blackoutLen}

	// The ring is a pure function of membership, so job names can be
	// picked ahead of the run: one on the shard to black out, one on a
	// shard whose number and sorted position also differ.
	ring := pipeline.NewRing(shardMembers(shards), 0)
	jobOn := func(member string) string {
		for i := 0; ; i++ {
			job := fmt.Sprintf("svc-%d", i)
			if ring.Owner(model.SpecKey{Job: model.JobName(job), Platform: model.PlatformA}) == member {
				return job
			}
		}
	}
	c := New(Config{
		Seed:           7,
		Machines:       8,
		CPUsPerMachine: 16,
		Shards:         shards,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: interval},
		Faults:         &FaultPlan{ShardBlackouts: []ShardBlackoutEvent{{Shard: down, Window: bl}}},
	})
	defer c.Close()
	pushes := pushLog{}
	for s := 0; s < shards; s++ {
		c.ShardBus(s).Watch(pushes)
	}
	for _, member := range []string{shardName(down), shardName(2)} {
		if err := c.AddJob(QuietServiceJob(jobOn(member), 16, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	c.Run(14 * time.Minute)

	keys := 0
	for s := 0; s < shards; s++ {
		bus := c.ShardBus(s)
		if bus.Shard() != shardName(s) {
			t.Errorf("bus %d is labelled %q, want %q", s, bus.Shard(), shardName(s))
		}
		for _, k := range bus.Builder().Keys() {
			keys++
			if owner := ring.Owner(k); owner != bus.Shard() {
				t.Errorf("key %v sits in the bus labelled %s, but the ring's owner is %s", k, bus.Shard(), owner)
			}
			if got := c.ShardOf(k); got != s {
				t.Errorf("key %v sits in bus %d, but ShardOf says %d", k, s, got)
			}
		}
	}
	if keys != 2 || len(pushes) != 2 {
		t.Fatalf("%d keys in builders, %d keys pushed; want 2 and 2", keys, len(pushes))
	}
	for k, times := range pushes {
		var worst time.Duration
		for i := 1; i < len(times); i++ {
			if gap := times[i].Sub(times[i-1]); gap > worst {
				worst = gap
			}
		}
		stale, want := worst >= blackoutLen, ring.Owner(k) == shardName(down)
		if stale != want {
			t.Errorf("key %v (owner %s): worst push gap %v, blackout %v of shard %d; stale=%v, want %v",
				k, ring.Owner(k), worst, blackoutLen, down, stale, want)
		}
	}
}

// TestShardedSpecEquivalence: running the same fleet with Shards=4
// changes NOTHING observable — incidents, spec tables, and sample
// counts are byte-identical to the single-shard run. Per-key builder
// state is independent and the ring routes each key to exactly one
// shard, so sharding must be a pure partition.
func TestShardedSpecEquivalence(t *testing.T) {
	machines, warm, dur := 16, 12*time.Minute, 8*time.Minute
	single := shardRun(t, 21, machines, 1, 0, warm, dur, nil)
	sharded := shardRun(t, 21, machines, 4, 0, warm, dur, nil)
	specEquivalence(t, single, sharded, "1-vs-4")
}

// TestReshardSpecEquivalence is the live-split acceptance check: a
// cluster that starts with ONE shard and splits 1→4 mid-run — moved
// keys' builder state handed off through checkpoint frames — ends with
// byte-identical incidents, specs, and forced-recompute output vs the
// run that never split. This is the "resharding loses nothing"
// guarantee: Welford moments, spec history, and recompute cadence all
// survive the handoff exactly.
func TestReshardSpecEquivalence(t *testing.T) {
	machines := 100
	if testing.Short() {
		machines = 16
	}
	warm, dur := 12*time.Minute, 10*time.Minute
	faults := &FaultPlan{Reshards: []ReshardEvent{{At: warm + 2*time.Minute, From: 1, To: 4}}}

	baseline := shardRun(t, 4321, machines, 1, 0, warm, dur, nil)
	split := shardRun(t, 4321, machines, 1, 0, warm, dur, faults)

	if got := split.NumShards(); got != 4 {
		t.Fatalf("after reshard NumShards = %d, want 4", got)
	}
	st := split.FaultStats()
	if st.ReshardsApplied != 1 {
		t.Fatalf("reshards applied = %d, want 1", st.ReshardsApplied)
	}
	if st.MovedKeys == 0 {
		t.Fatal("1→4 split moved no keys; the handoff path was not exercised")
	}
	if st.SpoolDropped != 0 {
		t.Errorf("reshard dropped %d spooled batches", st.SpoolDropped)
	}
	specEquivalence(t, baseline, split, "reshard-1to4")
	assertNoFalseCaps(t, split, "reshard")
}

// TestReshardSpecEquivalenceLargeFleet scales the live 1→4 split to a
// 10k-machine fleet (the ISSUE acceptance bar). Skipped under -short
// and -race: it is a capacity soak, not a logic probe — the logic is
// pinned by TestReshardSpecEquivalence above.
func TestReshardSpecEquivalenceLargeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-machine soak; skipped under -short")
	}
	if raceEnabled {
		t.Skip("10k-machine soak; race-detector overhead makes it too slow")
	}
	const machines = 10000
	workers := runtime.GOMAXPROCS(0)
	// Warm-up must cover ≥ MinSamplesPerTask sampling intervals (1/min)
	// for robust specs; the split lands mid-way through the active run.
	warm, dur := 6*time.Minute, 3*time.Minute
	faults := &FaultPlan{Reshards: []ReshardEvent{{At: warm + time.Minute, From: 1, To: 4}}}

	baseline := shardRun(t, 9, machines, 1, workers, warm, dur, nil)
	split := shardRun(t, 9, machines, 1, workers, warm, dur, faults)

	if got := split.NumShards(); got != 4 {
		t.Fatalf("after reshard NumShards = %d, want 4", got)
	}
	if st := split.FaultStats(); st.ReshardsApplied != 1 || st.MovedKeys == 0 {
		t.Fatalf("reshard accounting: %+v", st)
	}
	specEquivalence(t, baseline, split, "reshard-10k")
}

// TestShardBlackoutDegradation is the failure-domain acceptance run:
// blacking out the shard that owns the victim service's spec key
// degrades ONLY that shard's freshness. Victims everywhere — on the
// dead shard's keys (local detection runs from the last pushed specs)
// and on healthy shards — are detected exactly as in the no-fault run,
// zero false caps appear, every batch spooled against the dead shard
// replays on recovery (after the full-jitter reconnect window), and
// the final sample counts match the no-fault run.
func TestShardBlackoutDegradation(t *testing.T) {
	machines, blackoutLen, warm := 100, 10*time.Minute, 15*time.Minute
	if testing.Short() {
		machines, blackoutLen, warm = 16, 5*time.Minute, 12*time.Minute
	}
	dur := blackoutLen + 10*time.Minute // blackout ends 8 min before run end

	// The ring is a pure function of membership, so the test can
	// compute ahead of the run which shard owns the victim service's
	// key and aim the blackout at it.
	members := []string{shardName(0), shardName(1), shardName(2), shardName(3)}
	ring := pipeline.NewRing(members, 0)
	down := ring.OwnerIndex(model.SpecKey{Job: "bigtable", Platform: model.PlatformA})
	w := Window{From: warm + 2*time.Minute, To: warm + 2*time.Minute + blackoutLen}
	faults := &FaultPlan{ShardBlackouts: []ShardBlackoutEvent{{Shard: down, Window: w}}}

	baseline := shardRun(t, 4321, machines, 4, 0, warm, dur, nil)
	chaos := shardRun(t, 4321, machines, 4, 0, warm, dur, faults)

	// (a) Identical detection: victims on the dead shard's keys keep
	// being caught from their last pushed specs; victims on healthy
	// shards never notice.
	bj, _ := json.Marshal(baseline.Incidents())
	cj, _ := json.Marshal(chaos.Incidents())
	if string(bj) != string(cj) {
		t.Errorf("incident streams diverge under shard blackout: %d vs %d incidents",
			len(baseline.Incidents()), len(chaos.Incidents()))
	}
	if len(baseline.Incidents()) == 0 {
		t.Fatal("baseline raised no incidents; comparison is vacuous")
	}
	from, to := chaos.cfg.Start.Add(w.From), chaos.cfg.Start.Add(w.To)
	if len(incidentsInWindow(chaos, from, to)) == 0 {
		t.Error("no detections during the shard blackout — degradation is not graceful")
	}
	// The window's detections must include victims whose spec key the
	// dead shard owns: local detection keeps running from the last
	// pushed specs even when the shard that builds them is gone. (That
	// staleness is scoped to the dead shard's keys is pinned separately
	// by TestShardBlackoutStalenessScoped.)
	onDead := 0
	for _, inc := range chaos.Incidents() {
		if inc.Time.Before(from) || !inc.Time.Before(to) {
			continue
		}
		key := model.SpecKey{Job: inc.VictimJob, Platform: chaos.Machine(inc.Machine).Platform()}
		if ring.OwnerIndex(key) == down {
			onDead++
		}
	}
	if onDead == 0 {
		t.Error("no blackout-window detections for the dead shard's keys — the degradation claim is vacuous")
	}

	// (b) The blackout was real and scoped: one shard down for the
	// whole window, nothing lost, everything spooled replayed.
	st := chaos.FaultStats()
	if want := int64(blackoutLen / time.Second); st.ShardBlackoutTicks != want {
		t.Errorf("shard blackout ticks = %d, want %d", st.ShardBlackoutTicks, want)
	}
	if st.SpoolDropped != 0 {
		t.Errorf("spool dropped %d batches despite default budget", st.SpoolDropped)
	}
	if st.SpoolReplayed == 0 {
		t.Error("nothing replayed from spools after the shard recovered")
	}
	if st.SpooledBatches != 0 {
		t.Errorf("%d batches still spooled at run end", st.SpooledBatches)
	}
	brecv, _ := baseline.PipelineStats()
	crecv, _ := chaos.PipelineStats()
	if brecv != crecv {
		t.Errorf("aggregate sample counts differ: baseline %d, chaos %d", brecv, crecv)
	}

	// (c) No false caps in either run.
	assertNoFalseCaps(t, baseline, "baseline")
	assertNoFalseCaps(t, chaos, "shard-blackout")
}

// TestShardBlackoutStalenessScoped pins the failure-domain guarantee
// from the staleness side: with a short recompute cadence, a shard
// blackout stalls spec pushes ONLY for the dead shard's keys. The
// victim service on the dead shard sees one push gap spanning the
// whole blackout (bounded by blackout + 2 intervals, mirroring the
// global-blackout bound), while a service whose key lives on a healthy
// shard keeps its normal cadence straight through — its worst gap
// never even reaches the blackout length.
func TestShardBlackoutStalenessScoped(t *testing.T) {
	warm := 12 * time.Minute
	interval := 2 * time.Minute
	blackoutLen := 5 * time.Minute
	bl := Window{From: warm + 3*time.Minute, To: warm + 3*time.Minute + blackoutLen}

	// "bigtable"@A hashes to shard 3, "memkv"@A to shard 0 on a
	// 4-member ring; black out bigtable's shard and watch both.
	members := []string{shardName(0), shardName(1), shardName(2), shardName(3)}
	ring := pipeline.NewRing(members, 0)
	down := ring.OwnerIndex(model.SpecKey{Job: "bigtable", Platform: model.PlatformA})
	healthy := ring.OwnerIndex(model.SpecKey{Job: "memkv", Platform: model.PlatformA})
	if down == healthy {
		t.Fatalf("test jobs hash to the same shard (%d); pick different names", down)
	}

	c := New(Config{
		Seed:           7,
		Machines:       8,
		CPUsPerMachine: 16,
		Shards:         4,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: interval},
		Faults:         &FaultPlan{ShardBlackouts: []ShardBlackoutEvent{{Shard: down, Window: bl}}},
	})
	downWatch, healthyWatch := &stalenessTable{}, &stalenessTable{}
	c.ShardBus(down).Watch(downWatch)
	c.ShardBus(healthy).Watch(healthyWatch)
	if err := c.AddJob(QuietServiceJob("bigtable", 16, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(QuietServiceJob("memkv", 16, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	c.Run(14 * time.Minute)

	worstGap := func(w *stalenessTable) time.Duration {
		w.mu.Lock()
		times := append([]time.Time(nil), w.times...)
		w.mu.Unlock()
		if len(times) < 3 {
			t.Fatalf("only %d spec pushes seen", len(times))
		}
		var worst time.Duration
		for i := 1; i < len(times); i++ {
			if gap := times[i].Sub(times[i-1]); gap > worst {
				worst = gap
			}
		}
		return worst
	}

	deadWorst, healthyWorst := worstGap(downWatch), worstGap(healthyWatch)
	if bound := blackoutLen + 2*interval; deadWorst > bound {
		t.Errorf("dead shard's worst push gap %v exceeds bound %v (blackout %v + 2×%v)",
			deadWorst, bound, blackoutLen, interval)
	}
	if deadWorst < blackoutLen {
		t.Errorf("dead shard's worst gap %v shorter than the blackout %v — blackout did not suppress its recomputes",
			deadWorst, blackoutLen)
	}
	if healthyWorst >= blackoutLen {
		t.Errorf("healthy shard's worst push gap %v reached the blackout length %v — staleness leaked across the failure domain",
			healthyWorst, blackoutLen)
	}
	if bound := 2 * interval; healthyWorst > bound {
		t.Errorf("healthy shard's worst push gap %v exceeds its no-fault bound %v", healthyWorst, bound)
	}
}

// TestShardDeterminismAcrossWorkerCounts extends the determinism
// contract to the sharded chaos machinery: a 4-shard fleet that loses
// a shard mid-run and then shrinks 4→2 produces byte-identical
// incidents, specs, counters, and fault accounting at any worker
// count. Reconnect jitter, routing, handoff, and shard retirement all
// run in the serial commit phase, so workers must not matter.
func TestShardDeterminismAcrossWorkerCounts(t *testing.T) {
	warm, dur := 10*time.Minute, 10*time.Minute
	faults := func() *FaultPlan {
		return &FaultPlan{
			ShardBlackouts:  []ShardBlackoutEvent{{Shard: 1, Window: Window{From: warm + 1*time.Minute, To: warm + 3*time.Minute}}},
			Reshards:        []ReshardEvent{{At: warm + 6*time.Minute, From: 4, To: 2}},
			ReconnectSpread: 3 * time.Second,
		}
	}
	run := func(workers int) []byte {
		c := shardRun(t, 77, 16, 4, workers, warm, dur, faults())
		fp := struct {
			Incidents []core.Incident
			Specs     []model.Spec
			Received  int64
			Dropped   int64
			Stats     FaultStats
		}{}
		fp.Incidents = c.Incidents()
		fp.Specs = c.AllSpecs()
		fp.Received, fp.Dropped = c.PipelineStats()
		fp.Stats = c.FaultStats()
		b, err := json.Marshal(fp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(workers); string(got) != string(serial) {
			t.Errorf("workers=%d fingerprint differs from workers=1\nworkers=1: %.200s…\nworkers=%d: %.200s…",
				workers, serial, workers, got)
		}
	}
}
