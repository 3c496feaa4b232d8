package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

// chaosRun builds the same victim/antagonist cluster twice as
// chaosDegradation wants: quiet latency-sensitive services, batch
// noise, and a heavy antagonist arriving after specs are warm.
func chaosRun(t *testing.T, seed int64, machines, workers int, warm, dur time.Duration,
	faults *FaultPlan) *Cluster {
	t.Helper()
	c := New(Config{
		Seed:           seed,
		Machines:       machines,
		CPUsPerMachine: 16,
		Workers:        workers,
		Params:         core.Params{MinSamplesPerTask: 5},
		Faults:         faults,
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

// incidentKey identifies one detection for cross-run comparison.
type incidentKey struct {
	Time   time.Time
	Victim model.TaskID
}

func incidentsInWindow(c *Cluster, from, to time.Time) map[incidentKey]bool {
	out := make(map[incidentKey]bool)
	for _, inc := range c.Incidents() {
		if !inc.Time.Before(from) && inc.Time.Before(to) {
			out[incidentKey{Time: inc.Time, Victim: inc.Victim}] = true
		}
	}
	return out
}

// assertNoFalseCaps fails if any cap decision targeted anything but
// the antagonist job.
func assertNoFalseCaps(t *testing.T, c *Cluster, label string) {
	t.Helper()
	for _, inc := range c.Incidents() {
		decisions := append([]core.Decision{inc.Decision}, inc.GroupDecisions...)
		for _, d := range decisions {
			if d.Action == core.ActionCap && d.Target.Job != "video" {
				t.Errorf("%s: false cap on %v (victim %v at %v)", label, d.Target, inc.Victim, inc.Time)
			}
		}
	}
}

// TestChaosSmoke is the CI gate: a small cluster survives a blackout,
// link loss, and a machine crash, with every degradation visible in
// FaultStats and zero false caps. Kept small enough for -race in well
// under a minute.
func TestChaosSmoke(t *testing.T) {
	warm, dur := 10*time.Minute, 10*time.Minute
	faults := &FaultPlan{
		AggregatorBlackouts: []Window{{From: warm + 2*time.Minute, To: warm + 5*time.Minute}},
		SampleLoss:          0.05,
		Crashes:             []CrashEvent{{At: warm + 7*time.Minute, Machine: "machine-0002"}},
	}
	c := chaosRun(t, 99, 8, 0, warm, dur, faults)

	st := c.FaultStats()
	if st.ShardBlackoutTicks != int64(3*time.Minute/time.Second) {
		t.Errorf("shard blackout ticks = %d, want %d", st.ShardBlackoutTicks, 3*60)
	}
	if st.SpoolReplayed == 0 {
		t.Error("no spooled batches replayed after the blackout")
	}
	if st.SpoolDropped != 0 {
		t.Errorf("spool dropped %d batches despite default budget", st.SpoolDropped)
	}
	if st.SpooledBatches != 0 {
		t.Errorf("%d batches still spooled at end of run", st.SpooledBatches)
	}
	if st.LostBatches == 0 {
		t.Error("5% link loss lost nothing")
	}
	if st.CrashesApplied != 1 || st.TasksLost == 0 {
		t.Errorf("crash accounting = %+v", st)
	}
	if len(c.Incidents()) == 0 {
		t.Fatal("no incidents: the harness is not exercising detection")
	}
	// Local detection runs from the last pushed specs: the blackout
	// window must still contain detections.
	bl := faults.AggregatorBlackouts[0]
	during := incidentsInWindow(c, epoch.Add(bl.From), epoch.Add(bl.To))
	if len(during) == 0 {
		t.Error("no victim detections during the blackout — degradation is not graceful")
	}
	assertNoFalseCaps(t, c, "chaos")
	if r, _ := c.PipelineStats(); r == 0 {
		t.Error("bus received nothing")
	}
}

// TestChaosDegradation is the acceptance experiment for the paper's
// degradation claims (§3, §8): with an aggregator blackout mid-run,
// (a) victim detection is EXACTLY what the no-fault run sees — not
// just "no detection missed" but byte-identical incidents, since
// detection is local and specs were pushed before the pipe died;
// (b) every batch published during the blackout replays on reconnect
// with zero spool drops, so the aggregator ends with the same sample
// count as the no-fault run; and (c) the blackout introduces zero
// false caps.
func TestChaosDegradation(t *testing.T) {
	machines, workers := 100, 0
	warm, blackoutLen := 15*time.Minute, 10*time.Minute
	if testing.Short() {
		machines, warm, blackoutLen = 16, 12*time.Minute, 5*time.Minute
	}
	dur := blackoutLen + 10*time.Minute // blackout ends 8 min before run end
	bl := Window{From: warm + 2*time.Minute, To: warm + 2*time.Minute + blackoutLen}
	faults := &FaultPlan{AggregatorBlackouts: []Window{bl}}

	baseline := chaosRun(t, 4321, machines, workers, warm, dur, nil)
	chaos := chaosRun(t, 4321, machines, workers, warm, dur, faults)

	// (a) Identical detection. Local detection never consulted the
	// dead aggregator, so the incident streams must match exactly.
	bj, _ := json.Marshal(baseline.Incidents())
	cj, _ := json.Marshal(chaos.Incidents())
	if string(bj) != string(cj) {
		bw := incidentsInWindow(baseline, epoch.Add(bl.From), epoch.Add(bl.To))
		cw := incidentsInWindow(chaos, epoch.Add(bl.From), epoch.Add(bl.To))
		missed := 0
		for k := range bw {
			if !cw[k] {
				missed++
			}
		}
		t.Errorf("incident streams diverge under blackout: %d vs %d incidents, %d detections missed in window",
			len(baseline.Incidents()), len(chaos.Incidents()), missed)
	}
	if len(baseline.Incidents()) == 0 {
		t.Fatal("baseline raised no incidents; comparison is vacuous")
	}
	bw := incidentsInWindow(baseline, epoch.Add(bl.From), epoch.Add(bl.To))
	if len(bw) == 0 {
		t.Fatal("no baseline detections inside the blackout window; experiment is vacuous")
	}

	// (b) Nothing lost: the spool replayed everything, and the
	// aggregator's sample count matches the unfaulted run.
	st := chaos.FaultStats()
	if st.SpoolDropped != 0 {
		t.Errorf("spool dropped %d batches; budget should have sufficed", st.SpoolDropped)
	}
	if st.SpoolReplayed == 0 {
		t.Error("nothing replayed from spools")
	}
	if st.SpooledBatches != 0 {
		t.Errorf("%d batches still spooled at run end", st.SpooledBatches)
	}
	br, _ := baseline.PipelineStats()
	cr, _ := chaos.PipelineStats()
	if br != cr {
		t.Errorf("aggregator sample counts differ: baseline %d, chaos %d", br, cr)
	}

	// (c) No false caps in either run.
	assertNoFalseCaps(t, baseline, "baseline")
	assertNoFalseCaps(t, chaos, "chaos")
}

// TestChaosAgentRestartReconciliation is the crash-safe actuation
// acceptance run: every agent in the fleet is restarted mid-incident
// (state lost; machines, cgroups, and leased caps survive). One tick
// later no cap may be stranded — every mechanism-level cap is owned by
// its machine's (new) agent, every agent-level cap exists at the
// mechanism — and adopted caps keep their original expiry schedule.
func TestChaosAgentRestartReconciliation(t *testing.T) {
	machines := 100
	if testing.Short() {
		machines = 16
	}
	warm := 10 * time.Minute
	restartAt := warm + 5*time.Minute
	faults := &FaultPlan{}
	for i := 0; i < machines; i++ {
		faults.Restarts = append(faults.Restarts,
			RestartEvent{At: restartAt, Machine: fmt.Sprintf("machine-%04d", i)})
	}
	c := chaosRun(t, 99, machines, 0, warm, 5*time.Minute+2*time.Second, faults)

	st := c.FaultStats()
	if st.RestartsApplied != machines {
		t.Fatalf("restarts applied = %d, want %d", st.RestartsApplied, machines)
	}
	if st.CapsAdopted == 0 {
		t.Fatal("no caps were live across the restart; the experiment is vacuous")
	}
	stranded, phantom := 0, 0
	for i := 0; i < machines; i++ {
		m, a := c.nodes[i].m, c.nodes[i].a
		active := a.Manager().ActiveCaps()
		for _, id := range m.Tasks() {
			_, owned := active[id]
			switch {
			case m.IsCapped(id) && !owned:
				stranded++
				t.Errorf("stranded cap: %v capped on %s but unknown to its agent", id, m.Name())
			case !m.IsCapped(id) && owned:
				phantom++
				t.Errorf("phantom cap: agent of %s thinks %v is capped", m.Name(), id)
			}
		}
	}
	if stranded+phantom > 0 {
		t.Fatalf("%d stranded + %d phantom caps one tick after fleet-wide restart", stranded, phantom)
	}

	// The run keeps going sanely after the fleet-wide restart: caps
	// stay antagonist-only and nothing wedges. (That adopted caps keep
	// their original expiry schedule is pinned by the enforcer and
	// agent-level reconciliation unit tests.)
	c.Run(5 * time.Minute)
	assertNoFalseCaps(t, c, "restart")
}

// TestChaosCorruptQuarantined: a hostile writer spraying garbage
// batches (NaN/Inf/negative CPI and usage) at the aggregator changes
// NOTHING — incidents, final specs, and accepted-sample counts are
// byte-identical to the corruption-free run — while the quarantine
// proves the garbage actually arrived and was refused.
func TestChaosCorruptQuarantined(t *testing.T) {
	machines := 16
	warm, dur := 10*time.Minute, 10*time.Minute
	baseline := chaosRun(t, 77, machines, 0, warm, dur, nil)
	corrupt := chaosRun(t, 77, machines, 0, warm, dur, &FaultPlan{CorruptRate: 0.05})

	st := corrupt.FaultStats()
	if st.CorruptBatches == 0 {
		t.Fatal("corrupt=0.05 injected nothing; the experiment is vacuous")
	}
	if st.Quarantined < st.CorruptBatches {
		t.Errorf("quarantined %d < injected batches %d: garbage reached the builder",
			st.Quarantined, st.CorruptBatches)
	}
	if len(baseline.Incidents()) == 0 {
		t.Fatal("baseline raised no incidents; comparison is vacuous")
	}

	bi, _ := json.Marshal(baseline.Incidents())
	ci, _ := json.Marshal(corrupt.Incidents())
	if string(bi) != string(ci) {
		t.Errorf("incident streams diverge under corruption: %d vs %d incidents",
			len(baseline.Incidents()), len(corrupt.Incidents()))
	}
	bs, _ := json.Marshal(baseline.RecomputeSpecs())
	cs, _ := json.Marshal(corrupt.RecomputeSpecs())
	if string(bs) != string(cs) {
		t.Errorf("specs diverge under corruption:\nbaseline: %.300s\ncorrupt:  %.300s", bs, cs)
	}
	br, _ := baseline.PipelineStats()
	cr, _ := corrupt.PipelineStats()
	if br != cr {
		t.Errorf("accepted sample counts differ: baseline %d, corrupt %d", br, cr)
	}
	assertNoFalseCaps(t, corrupt, "corrupt")
}

// stalenessTable records every spec push an agent-side watcher sees,
// keyed by the spec's own (simulation-time) UpdatedAt stamp.
type stalenessTable struct {
	mu    sync.Mutex
	times []time.Time
}

func (s *stalenessTable) WantSpec(model.SpecKey) bool { return true }
func (s *stalenessTable) InterestVersion() uint64     { return 0 }
func (s *stalenessTable) DeliverSpec(spec model.Spec) {
	s.mu.Lock()
	s.times = append(s.times, spec.UpdatedAt)
	s.mu.Unlock()
}

// TestChaosSpecStalenessBounded: with periodic recomputes and a
// blackout, the gap between consecutive spec pushes a machine sees is
// bounded by blackout length + 2 recompute intervals — the spec is
// stale for exactly as long as the pipe is down, then recovers on the
// next due recompute.
func TestChaosSpecStalenessBounded(t *testing.T) {
	warm := 12 * time.Minute
	interval := 2 * time.Minute
	bl := Window{From: warm + 3*time.Minute, To: warm + 8*time.Minute}
	c := New(Config{
		Seed:           7,
		Machines:       8,
		CPUsPerMachine: 16,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: interval},
		Faults:         &FaultPlan{AggregatorBlackouts: []Window{bl}},
	})
	watch := &stalenessTable{}
	c.ShardBus(0).Watch(watch)
	if err := c.AddJob(QuietServiceJob("bigtable", 16, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	c.Run(14 * time.Minute)

	watch.mu.Lock()
	times := append([]time.Time(nil), watch.times...)
	watch.mu.Unlock()
	if len(times) < 3 {
		t.Fatalf("only %d spec pushes seen", len(times))
	}
	blackoutLen := bl.To - bl.From
	bound := blackoutLen + 2*interval
	var worst time.Duration
	for i := 1; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap > worst {
			worst = gap
		}
	}
	if worst > bound {
		t.Errorf("max spec staleness %v exceeds bound %v (blackout %v + 2×%v)",
			worst, bound, blackoutLen, interval)
	}
	// The bound must actually bind: the worst gap spans the blackout.
	if worst < blackoutLen {
		t.Errorf("worst gap %v shorter than the blackout %v — blackout did not suppress recomputes?", worst, blackoutLen)
	}
}

// chaosFingerprint runs a fully-faulted cluster and fingerprints
// everything including the event log and fault stats.
func chaosFingerprint(t *testing.T, workers int) []byte {
	t.Helper()
	warm := 10 * time.Minute
	ev := obs.NewEventLog(1<<15, nil)
	faults := &FaultPlan{
		AggregatorBlackouts: []Window{{From: warm + 2*time.Minute, To: warm + 4*time.Minute}},
		SampleLoss:          0.05,
		SpecPushDelay:       30 * time.Second,
		Crashes:             []CrashEvent{{At: warm + 5*time.Minute, Machine: "machine-0001"}},
		Restarts:            []RestartEvent{{At: warm + 5*time.Minute + 30*time.Second, Machine: "machine-0002"}},
		CorruptRate:         0.02,
		Skews:               []SkewEvent{{Machine: "machine-0003", Offset: -15 * time.Second}},
		SpoolBatches:        64,
	}
	c := New(Config{
		Seed:           31,
		Machines:       10,
		CPUsPerMachine: 16,
		Workers:        workers,
		Params:         core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: 3 * time.Minute},
		Events:         ev,
		Faults:         faults,
	})
	if err := c.AddJob(QuietServiceJob("bigtable", 20, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 4, 7, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(8 * time.Minute)
	fp := struct {
		Incidents []core.Incident
		Events    []obs.Event
		Stats     FaultStats
		Received  int64
	}{
		Incidents: c.Incidents(),
		Events:    ev.Recent(0, ""),
		Stats:     c.FaultStats(),
	}
	fp.Received, _ = c.PipelineStats()
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosDeterminismAcrossWorkerCounts: fault injection lives
// entirely in the serial commit phase, so a faulted run is exactly as
// worker-count-independent as a clean one — event log included.
func TestChaosDeterminismAcrossWorkerCounts(t *testing.T) {
	base := chaosFingerprint(t, 1)
	got := chaosFingerprint(t, 4)
	if string(base) != string(got) {
		t.Errorf("chaos fingerprint differs across worker counts\nworkers=1: %.200s…\nworkers=4: %.200s…", base, got)
	}
	var fp struct{ Stats FaultStats }
	if err := json.Unmarshal(base, &fp); err != nil {
		t.Fatal(err)
	}
	if fp.Stats.LostBatches == 0 || fp.Stats.ShardBlackoutTicks == 0 || fp.Stats.CrashesApplied != 1 {
		t.Errorf("fault machinery not exercised: %+v", fp.Stats)
	}
	if fp.Stats.RestartsApplied != 1 || fp.Stats.CorruptBatches == 0 || fp.Stats.Quarantined == 0 {
		t.Errorf("restart/corrupt machinery not exercised: %+v", fp.Stats)
	}
}

// TestBlackoutIsEveryShardDown: an aggregator blackout is one
// shardblackout= window per live shard and nothing more. On a 3-shard
// fleet the two spellings give byte-identical incidents, specs, fault
// accounting and event logs — the reconnect jitter after the window,
// the loss and corruption draws and an agent restart inside it
// included.
func TestBlackoutIsEveryShardDown(t *testing.T) {
	const w, rest = "14m+3m", ",reconnect=4s,loss=0.02,corrupt=0.02,restart=machine-0001@15m"
	run := func(outage string) ([]byte, FaultStats) {
		t.Helper()
		plan, err := ParseFaultPlan(outage + rest)
		if err != nil {
			t.Fatal(err)
		}
		ev := obs.NewEventLog(1<<15, nil)
		c := New(Config{
			Seed:              17,
			Machines:          12,
			CPUsPerMachine:    16,
			PlatformBFraction: 0.3,
			Shards:            3,
			Params:            core.Params{MinSamplesPerTask: 5},
			Events:            ev,
			Faults:            plan,
		})
		defer c.Close()
		if err := c.AddJob(QuietServiceJob("bigtable", 24, 0.8)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddJob(BatchJob("logproc", 6, 0.5, model.PriorityBestEffort)); err != nil {
			t.Fatal(err)
		}
		if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := c.AddJob(AntagonistJob("video", 5, 7, model.PriorityBatch)); err != nil {
			t.Fatal(err)
		}
		c.Run(10 * time.Minute)
		fp := struct {
			Incidents []core.Incident
			Specs     []model.Spec
			Stats     FaultStats
			Events    []obs.Event
		}{c.Incidents(), c.AllSpecs(), c.FaultStats(), ev.Recent(0, "")}
		b, err := json.Marshal(fp)
		if err != nil {
			t.Fatal(err)
		}
		return b, fp.Stats
	}
	every, st := run("blackout=" + w)
	perShard, _ := run("shardblackout=0@" + w + ",shardblackout=1@" + w + ",shardblackout=2@" + w)
	if string(every) != string(perShard) {
		t.Errorf("blackout= and a shardblackout= per shard diverge\nblackout:      %.300s…\nshardblackout: %.300s…",
			every, perShard)
	}
	if want := int64(3 * 3 * time.Minute / time.Second); st.ShardBlackoutTicks != want {
		t.Errorf("shard blackout ticks = %d, want %d (3 shards × 3 min)", st.ShardBlackoutTicks, want)
	}
	if st.SpoolReplayed == 0 || st.LostBatches == 0 || st.CorruptBatches == 0 || st.RestartsApplied != 1 {
		t.Errorf("outage machinery not exercised: %+v", st)
	}
}

// TestRestartedAgentSkipsDownShards: an agent restarted during an
// outage is handed specs only by the shards that are up. A down shard
// serves none, whichever directive took it down.
func TestRestartedAgentSkipsDownShards(t *testing.T) {
	const shards, machines = 4, 10
	warm := 12 * time.Minute
	restartAt := warm + 2*time.Minute
	window := (warm + time.Minute).String() + "+5m"
	// The shardblackout= case takes down the owner of a key the fleet
	// runs, so its specs are wanted and must still be withheld.
	deadKey := model.SpecKey{Job: "bigtable", Platform: model.PlatformA}
	probe := New(Config{Machines: 1, Shards: shards, Workers: 1})
	dead := probe.ShardOf(deadKey)
	probe.Close()

	for _, tc := range []struct {
		name   string
		outage string
		down   func(s int) bool
	}{
		{"blackout", "blackout=" + window, func(int) bool { return true }},
		{"shardblackout", fmt.Sprintf("shardblackout=%d@%s", dead, window), func(s int) bool { return s == dead }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := ParseFaultPlan(tc.outage)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < machines; i++ {
				plan.Restarts = append(plan.Restarts, RestartEvent{At: restartAt, Machine: fmt.Sprintf("machine-%04d", i)})
			}
			c := New(Config{
				Seed:              23,
				Machines:          machines,
				CPUsPerMachine:    16,
				PlatformBFraction: 0.5,
				Shards:            shards,
				Params:            core.Params{MinSamplesPerTask: 5},
				Faults:            plan,
			})
			defer c.Close()
			if err := c.AddJob(QuietServiceJob("bigtable", 2*machines, 0.8)); err != nil {
				t.Fatal(err)
			}
			if err := c.AddJob(BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort)); err != nil {
				t.Fatal(err)
			}
			if _, err := WarmUpSpecs(c, warm); err != nil {
				t.Fatal(err)
			}
			c.Run(restartAt - warm) // the last tick applies the restarts
			if got := c.FaultStats().RestartsApplied; got != machines {
				t.Fatalf("restarts applied = %d, want %d", got, machines)
			}
			wanted, fromUp := false, 0
			for _, n := range c.nodes {
				wanted = wanted || n.a.WantSpec(deadKey)
				for _, spec := range n.a.Manager().Specs() {
					if s := c.ShardOf(spec.Key()); tc.down(s) {
						t.Errorf("%s: restarted agent got %v from shard %d, which is down", n.m.Name(), spec.Key(), s)
					} else {
						fromUp++
					}
				}
			}
			if !wanted {
				t.Fatalf("no restarted agent wants %v; the test is vacuous", deadKey)
			}
			if tc.name == "shardblackout" && fromUp == 0 {
				t.Error("restarted agents got no spec from the shards that are up")
			}
		})
	}
}

// TestFaultTimelineOrder: reshards, crashes and restarts apply from one
// timeline, in offset order, and at equal offsets reshard, then crash,
// then restart — read back from the event log of a fleet stepping 10s
// ticks. Each plan lists its events against the order they apply in.
func TestFaultTimelineOrder(t *testing.T) {
	order := func(plan string) []obs.Event {
		t.Helper()
		p, err := ParseFaultPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		ev := obs.NewEventLog(64, nil)
		c := New(Config{Seed: 3, Machines: 4, TickInterval: 10 * time.Second, Workers: 1, Events: ev, Faults: p})
		defer c.Close()
		c.Run(6 * time.Minute)
		return ev.Recent(0, "")
	}
	for _, tc := range []struct {
		name, plan string
		want       []string
	}{
		{"equal offsets", "restart=machine-0002@5m,crash=machine-0001@5m,reshard=1>2@5m",
			[]string{"reshard", "machine_crash", "agent_restart"}},
		// All three fall in the one tick (5m, 5m10s].
		{"offsets within one tick", "reshard=1>2@5m7s,crash=machine-0001@5m3s,restart=machine-0002@5m1s",
			[]string{"agent_restart", "machine_crash", "reshard"}},
	} {
		events := order(tc.plan)
		var got []string
		for _, e := range events {
			got = append(got, e.Type)
			if !e.Time.Equal(events[0].Time) {
				t.Errorf("%s: %s at %v, not in the tick of %v", tc.name, e.Type, e.Time, events[0].Time)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: applied %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("blackout=30m+10m,loss=0.05,specdelay=2m,crash=machine-0003@20m," +
		"restart=machine-0001@25m,corrupt=0.02,skew=machine-0002@-30s,spool=256,spoolbytes=1048576," +
		"shardblackout=2@35m+5m,reshard=1>4@15m,reconnect=3s")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{
		AggregatorBlackouts: []Window{{From: 30 * time.Minute, To: 40 * time.Minute}},
		SampleLoss:          0.05,
		SpecPushDelay:       2 * time.Minute,
		Crashes:             []CrashEvent{{At: 20 * time.Minute, Machine: "machine-0003"}},
		Restarts:            []RestartEvent{{At: 25 * time.Minute, Machine: "machine-0001"}},
		CorruptRate:         0.02,
		Skews:               []SkewEvent{{Machine: "machine-0002", Offset: -30 * time.Second}},
		SpoolBatches:        256,
		SpoolBytes:          1 << 20,
		ShardBlackouts:      []ShardBlackoutEvent{{Shard: 2, Window: Window{From: 35 * time.Minute, To: 40 * time.Minute}}},
		Reshards:            []ReshardEvent{{At: 15 * time.Minute, From: 1, To: 4}},
		ReconnectSpread:     3 * time.Second,
	}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("parsed %+v, want %+v", p, want)
	}
	// String round-trips.
	p2, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Errorf("round trip: %+v vs %+v", p, p2)
	}
	if p3, err := ParseFaultPlan(""); err != nil || !reflect.DeepEqual(p3, &FaultPlan{}) {
		t.Errorf("empty plan: %+v, %v", p3, err)
	}
	for _, bad := range []string{
		"nope", "loss=2", "loss=x", "blackout=10m", "blackout=10m+-5m",
		"crash=@10m", "crash=machine-1", "specdelay=-1m", "spool=-1", "frobnicate=1",
		"restart=@10m", "restart=machine-1", "restart=m@-5m",
		"corrupt=2", "corrupt=x", "corrupt=-0.1",
		"skew=@30s", "skew=machine-1", "skew=m@bogus",
		"shardblackout=10m+5m", "shardblackout=-1@10m+5m", "shardblackout=x@10m+5m",
		"reshard=4@10m", "reshard=0>4@10m", "reshard=1>0@10m", "reshard=1>4@-1m", "reshard=a>b@10m",
		"reconnect=-1s", "reconnect=x",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// FuzzFaultPlanParse: arbitrary flag strings never panic, and every
// accepted plan round-trips through String → Parse unchanged.
func FuzzFaultPlanParse(f *testing.F) {
	f.Add("blackout=30m+10m,loss=0.05,specdelay=2m,crash=machine-0003@20m,spool=256")
	f.Add("")
	f.Add("loss=1")
	f.Add("blackout=0s+1s,blackout=5s+1s")
	f.Add("crash=a@0s,crash=b@0s,spoolbytes=9223372036854775807")
	f.Add("shardblackout=0@10m+5m,shardblackout=3@1s+1s,reshard=1>4@15m,reconnect=3s")
	f.Add("reshard=4>2@0s,reshard=1→4@1h")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("parse accepted an invalid plan %q: %v", s, err)
		}
		p2, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("round trip of %q failed to parse: %v (rendered %q)", s, err, p.String())
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q changed the plan: %+v vs %+v", s, p, p2)
		}
	})
}
