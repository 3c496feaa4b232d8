package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// faultedRunSHA256 pins faultedRunHash: a commit phase that skips a
// machine with something to commit — or drains it a Step late — moves
// it.
const faultedRunSHA256 = "3a25995d3b23e2c561a4aa882279ec20e5255bcb7ed6361fe3330d56002e1205"

// faultedRun runs a fleet with registry, events and tracing on
// through a crash, an agent restart, a shard blackout long enough for
// spool replay, a reshard inside that blackout, a skewed agent clock,
// sample loss and delayed spec pushes — everything but corruption, so
// that no fault draw forces a visit to every machine — with churning
// restarts. The cluster closes when the test ends.
func faultedRun(t *testing.T, workers int) (*Cluster, *obs.Registry, *obs.EventLog) {
	t.Helper()
	const machines = 16
	warm := 12 * time.Minute
	ev := obs.NewEventLog(1<<16, nil)
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:              7,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.25,
		Shards:            2,
		Workers:           workers,
		Params:            core.Params{MinSamplesPerTask: 5, SpecRecomputeInterval: 2 * time.Minute},
		Registry:          reg,
		Events:            ev,
		Faults: &FaultPlan{
			SampleLoss:     0.03,
			SpecPushDelay:  20 * time.Second,
			ShardBlackouts: []ShardBlackoutEvent{{Shard: 0, Window: Window{From: warm + 2*time.Minute, To: warm + 6*time.Minute}}},
			Reshards:       []ReshardEvent{{At: warm + 4*time.Minute, From: 2, To: 3}},
			Crashes:        []CrashEvent{{At: warm + 3*time.Minute + 30*time.Second, Machine: "machine-0010"}},
			Restarts:       []RestartEvent{{At: warm + 4*time.Minute + 30*time.Second, Machine: "machine-0009"}},
			Skews:          []SkewEvent{{Machine: "machine-0003", Offset: -17 * time.Second}},
			SpoolBatches:   3,
		},
	})
	t.Cleanup(c.Close)
	defs, tree := WebSearchJob("websearch", machines, machines/4+1, 2, c.RNG())
	c.OnTick(func(time.Time) { tree.EndTick() })
	defs = append(defs,
		QuietServiceJob("bigtable", 2*machines, 0.8),
		BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort),
		MapReduceJob("mapreduce", machines/2, 2, workload.ReactLameDuck))
	// Finite restarting batch tasks keep exits and re-placements flowing
	// through the commit phase for the whole run.
	churn := BatchJob("churn", 4, 1, model.PriorityBatch)
	churn.RestartOnExit = true
	churn.NewWorkload = func(model.TaskID, *stats.RNG) machine.Workload {
		b := workload.NewBatch(1, 4, 2.6)
		b.TotalTx = 100
		b.InstructionsPerTx = 1e9
		return b
	}
	defs = append(defs, churn)
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", machines/2, 9, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute)
	return c, reg, ev
}

// faultedRunHash hashes faultedRun's incidents, spec table, full
// /metrics page, event log, FaultStats and spans by stage.
func faultedRunHash(t *testing.T, workers int) string {
	t.Helper()
	c, reg, ev := faultedRun(t, workers)
	st := c.FaultStats()
	if st.CrashesApplied != 1 || st.TasksRestarted == 0 || st.RestartsApplied != 1 || st.CapsAdopted == 0 ||
		st.ReshardsApplied != 1 || st.SpoolReplayed == 0 || st.SpoolDropped == 0 ||
		st.LostBatches == 0 || st.DelayedSpecPushes == 0 {
		t.Errorf("fault machinery not exercised: %+v", st)
	}
	exits, restarts := c.Stats()
	if exits == 0 || restarts == 0 || len(c.Incidents()) == 0 {
		t.Errorf("%d exits, %d restarts, %d incidents: the run does not exercise the commit phase",
			exits, restarts, len(c.Incidents()))
	}
	fp := struct {
		Incidents    []core.Incident
		Specs        []model.Spec
		MetricsText  string
		Events       []obs.Event
		Stats        FaultStats
		SpansByStage map[string]uint64
	}{c.Incidents(), c.AllSpecs(), reg.Render(), ev.Recent(0, ""), st, c.SpanCounts()}
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestConcurrentFaultedRunPinned: a faulted, fully observed run is
// byte-identical to the one pinned by faultedRunSHA256, at one worker
// and at four.
func TestConcurrentFaultedRunPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if got := faultedRunHash(t, workers); got != faultedRunSHA256 {
			t.Errorf("workers=%d: faulted run hash %s, pinned %s", workers, got, faultedRunSHA256)
		}
	}
}

// TestIncidentsAreTheStoreLog: the cluster keeps no incident log of its
// own. On a faulted run Incidents equals the forensics store's log, and
// it is a copy: writing to it leaves the store as it was.
func TestIncidentsAreTheStoreLog(t *testing.T) {
	c, _, _ := faultedRun(t, 1)
	got, logged := c.Incidents(), c.Store().Incidents()
	if len(got) == 0 || !reflect.DeepEqual(got, logged) {
		t.Fatalf("Cluster.Incidents has %d incidents, the store %d, and they differ", len(got), len(logged))
	}
	all := "SELECT " + strings.Join(forensics.Columns, ", ") + " FROM incidents"
	before, err := c.Store().Query(all)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Machine, got[0].Decision.Action, got[0].Suspects = "elsewhere", core.ActionReport, nil
	got[len(got)-1] = core.Incident{Machine: "extra"}
	if after := c.Store().Incidents(); !reflect.DeepEqual(after, logged) {
		t.Error("writing to the returned incidents changed the store's log")
	}
	after, err := c.Store().Query(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Error("writing to the returned incidents changed the store's rows")
	}
}

// TestConcurrentIdleStepsCommitNothing: on a warmed fault-free fleet with
// registry, events and tracing on, a Step on which no sampling window
// closes gives the commit phase no machine to visit, and the Step on
// which the windows close gives it every machine.
func TestConcurrentIdleStepsCommitNothing(t *testing.T) {
	const machines = 20
	c := New(Config{
		Seed:           3,
		Machines:       machines,
		CPUsPerMachine: 16,
		Workers:        2,
		Params:         core.Params{MinSamplesPerTask: 5},
		Registry:       obs.NewRegistry(),
		Events:         obs.NewEventLog(1<<10, nil),
	})
	defer c.Close()
	for _, d := range []JobDef{
		QuietServiceJob("bigtable", 2*machines, 0.8),
		BatchJob("logproc", machines, 0.5, model.PriorityBestEffort),
	} {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WarmUpSpecs(c, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var idle, full int
	for i := 0; i < 120; i++ {
		c.Step()
		switch c.committed {
		case 0:
			idle++
		case machines:
			full++
		default:
			t.Fatalf("step %d committed %d of %d machines", i, c.committed, machines)
		}
	}
	if idle != 118 || full != 2 {
		t.Errorf("over two simulated minutes: %d idle steps, %d with every machine committed; want 118 and 2", idle, full)
	}
}

// TestConcurrentIdleAgentTicksOnlyAtWindowEdges pins, as a count, the
// agent ticks that run in full rather than return at once. On a
// 100-machine fleet with no cap in force an agent runs only its two
// window-edge ticks a minute (the 10 s window opens and closes), 200 in
// all. A cap adopted mid-interval (Agent.Reconcile, the one way a cap
// is made outside a tick) makes its agent run every tick, 60 a minute,
// while the other 99 stay at two; once it is released, its agent runs
// one tick more (the first after the release) and is back at two.
func TestConcurrentIdleAgentTicksOnlyAtWindowEdges(t *testing.T) {
	const machines = 100
	c := New(Config{Seed: 6, Machines: machines, CPUsPerMachine: 16, Workers: 2})
	defer c.Close()
	for _, d := range []JobDef{
		QuietServiceJob("bigtable", 2*machines, 0.8),
		BatchJob("logproc", machines, 0.5, model.PriorityBestEffort),
	} {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	fullTicks := func() (n int64) {
		for _, nd := range c.nodes {
			n += nd.a.FullTicks()
		}
		return n
	}
	minute := func() int64 {
		before := fullTicks()
		c.Run(time.Minute)
		return fullTicks() - before
	}
	c.Run(90 * time.Second) // mid-interval: every agent is between edges
	if got := minute(); got != 2*machines {
		t.Fatalf("no cap in force: %d full agent ticks in a minute, want %d", got, 2*machines)
	}
	if caps := len(c.Incidents()); caps != 0 {
		t.Fatalf("%d incidents on a fleet with no specs", caps)
	}

	n := c.nodes[0]
	var task model.TaskID
	for _, id := range n.m.Tasks() {
		if id.Job == "logproc" {
			task = id
		}
	}
	if task == (model.TaskID{}) {
		t.Fatal("machine 0 runs no batch task")
	}
	now := c.Now()
	if err := n.m.CapLease(task, 0.1, now.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	adopted, _ := n.a.Reconcile(now, []core.CapJournalEntry{{
		Op: core.CapOpCap, Time: now, Task: task.String(),
		Quota: 0.1, Expires: now.Add(time.Hour), Round: 1,
	}})
	if len(adopted) != 1 {
		t.Fatalf("adopted %v, want %v", adopted, task)
	}
	if got := minute(); got != 2*(machines-1)+60 {
		t.Errorf("one cap in force: %d full agent ticks in a minute, want %d", got, 2*(machines-1)+60)
	}
	if !n.m.IsCapped(task) {
		t.Error("the adopted cap's lease was not renewed")
	}
	if released := n.a.Manager().ReleaseAll(); len(released) != 1 {
		t.Fatalf("released %v, want %v", released, task)
	}
	if got := minute(); got != 2*machines+1 {
		t.Errorf("after the release: %d full agent ticks in a minute, want %d", got, 2*machines+1)
	}
}

// TestConcurrentQueuedBatchPendingAtBarrier: with no registry, events
// or faults, the sample batch an agent queues when its window closes is
// all a quiet machine has to commit. Workers queue it in the parallel
// phase and the lock-free Queue.Len reports it, so at the barrier every
// machine is pending: each window step commits the whole fleet and its
// samples reach the bus, and the steps between commit nothing. Run
// under -race, this also checks the queue depth is read safely.
func TestConcurrentQueuedBatchPendingAtBarrier(t *testing.T) {
	const machines = 16
	c := New(Config{Seed: 4, Machines: machines, CPUsPerMachine: 16, Workers: 4})
	defer c.Close()
	if err := c.AddJob(QuietServiceJob("bigtable", 2*machines, 0.8)); err != nil {
		t.Fatal(err)
	}
	received := func() (n int64) {
		for _, b := range c.buses {
			r, _ := b.Stats()
			n += r
		}
		return n
	}
	windows := 0
	for i := 0; i < 180; i++ {
		before := received()
		c.Step()
		got := received() - before
		switch {
		case c.committed == 0 && got == 0:
		case c.committed == machines && got > 0:
			windows++
		default:
			t.Fatalf("step %d: committed %d of %d machines, %d samples reached the bus", i, c.committed, machines, got)
		}
	}
	if windows != 3 {
		t.Errorf("over three simulated minutes: %d window steps committed the fleet, want 3", windows)
	}
}

// TestStepLeavesNothingStaged: when Step returns, no machine holds a
// staged event or an undrained metric write, whatever produced it — a
// cap expiring between sampling windows, or a crash and an agent
// restart the fault timeline applies between windows to machines with
// live caps. A commit phase that skipped such a machine would leave the
// write for a later Step and change when it reaches the shared log and
// series. Registry and events are checked one at a time, because either
// alone makes a machine pending.
func TestStepLeavesNothingStaged(t *testing.T) {
	warm := 10 * time.Minute
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"registry", func(c *Config) { c.Registry = obs.NewRegistry() }},
		{"events", func(c *Config) { c.Events = obs.NewEventLog(1<<12, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Seed: 5, Machines: 12, CPUsPerMachine: 16, Workers: 2,
				// 90 s caps, applied as a window closes, expire between
				// windows.
				Params: core.Params{MinSamplesPerTask: 5, CapDuration: 90 * time.Second},
				Faults: &FaultPlan{
					Crashes:  []CrashEvent{{At: warm + 4*time.Minute + 30*time.Second, Machine: "machine-0002"}},
					Restarts: []RestartEvent{{At: warm + 4*time.Minute + 40*time.Second, Machine: "machine-0001"}},
				},
			}
			tc.cfg(&cfg)
			c := New(cfg)
			defer c.Close()
			if err := c.AddJob(QuietServiceJob("bigtable", 24, 0.8)); err != nil {
				t.Fatal(err)
			}
			if _, err := WarmUpSpecs(c, warm); err != nil {
				t.Fatal(err)
			}
			if err := c.AddJob(AntagonistJob("video", 4, 9, model.PriorityBatch)); err != nil {
				t.Fatal(err)
			}
			var between int
			for step := 0; step < 8*60; step++ {
				c.Step()
				for i, n := range c.nodes {
					if n.events.Len() > 0 || (n.metricsWritten != nil && n.metricsWritten()) {
						t.Fatalf("%v: machine %d holds undrained writes after Step", c.Now().Sub(epoch), i)
					}
				}
				if c.Now().Sub(epoch)%time.Minute != 11*time.Second && c.committed > 0 {
					between++ // a Step between windows that committed something
				}
			}
			st := c.FaultStats()
			if between == 0 || st.TasksLost == 0 || st.CapsAdopted == 0 {
				t.Errorf("%d between-window commits, %d tasks lost, %d caps adopted: caps must expire, die and be re-adopted between windows",
					between, st.TasksLost, st.CapsAdopted)
			}
		})
	}
}
