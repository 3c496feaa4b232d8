// Package cluster is the full-system harness: a simulated compute
// cluster of machines running the CPI² node agent, a central
// scheduler placing jobs, the sample/spec pipeline, and the forensics
// store. The experiment harness (cmd/experiments), the fleet
// benchmarks and the examples drive everything through this package.
package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

// epoch is when every simulation starts: 2011-11-01 00:00 UTC, the
// first day of the paper's Figure 5 trace.
var epoch = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)

// overcommit is the scheduler's batch overcommit factor: batch work
// may commit up to 1.5× a machine's CPUs.
const overcommit = 1.5

// Config sizes and seeds a cluster.
type Config struct {
	// Seed roots all randomness; equal seeds give identical runs.
	Seed int64
	// Machines is the number of machines (default 10).
	Machines int
	// CPUsPerMachine is the per-machine CPU count (default 16).
	CPUsPerMachine int
	// PlatformBFraction is the fraction of machines using PlatformB
	// (the rest are PlatformA).
	PlatformBFraction float64
	// Params are the CPI² parameters (zero fields take Table 2
	// defaults).
	Params core.Params
	// TickInterval is the simulation step (default 1s).
	TickInterval time.Duration
	// Shards is the number of spec-aggregator shards (default 1). The
	// spec tier always sits behind a consistent-hash ring over
	// job×platform keys, with one member per shard: each shard runs its
	// own SpecBuilder and bus, owns a stable subset of keys, and fails
	// independently — a blacked-out shard degrades only its own jobs'
	// specs. Because every per-key aggregate is independent, the merged
	// spec table is byte-identical at any shard count.
	Shards int
	// Workers is the number of goroutines ticking machines in
	// parallel during Step's parallel phase (default GOMAXPROCS).
	// Results are committed in machine-index order regardless, so the
	// same seed produces byte-identical incidents, specs, and
	// counters at ANY worker count; Workers only changes wall-clock
	// time. Set 1 to tick machines on the calling goroutine.
	Workers int
	// Registry, when non-nil, instruments every component (agents,
	// managers, pipeline, spec builder) into one shared metric
	// registry; per-machine series aggregate cluster-wide.
	Registry *obs.Registry
	// Events, when non-nil, receives the structured incident and cap
	// lifecycle events of every machine. Agents stage events in
	// per-machine buffers during the parallel tick phase; the commit
	// phase drains them in machine-index order, so the log is
	// byte-identical at any worker count.
	Events *obs.EventLog
	// Faults is the failure timeline to inject (aggregator blackouts,
	// lossy links, delayed spec pushes, machine crashes). Nil means the
	// empty plan: the sample path — bounded spools and ingress validation
	// included — is the same on every run, a plan only decides what goes
	// wrong on it. The plan must pass Validate; New panics otherwise.
	Faults *FaultPlan
	// TraceCapacity bounds each span store, the aggregator's and every
	// machine's (0 selects the trace package default of 4096; stores
	// grow as spans arrive). Within it a store keeps per-sample spans
	// for Params.LookBack and each spec key's newest spec spans. Negative
	// disables tracing entirely. Determinism is unaffected: traces are
	// either identically present or identically absent at any worker
	// count.
	TraceCapacity int
}

// newTraceStore returns a span store of TraceCapacity spans that keeps
// per-sample spans for the Params' LookBack (nil when tracing is off).
func (c Config) newTraceStore() *trace.Store {
	if c.TraceCapacity < 0 {
		return nil
	}
	st := trace.NewStore(c.TraceCapacity)
	st.SetHorizon(c.Params.LookBack())
	return st
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 10
	}
	if c.CPUsPerMachine <= 0 {
		c.CPUsPerMachine = 16
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Faults == nil {
		c.Faults = &FaultPlan{}
	}
	c.Params = c.Params.Sanitize()
	return c
}

// WorkloadFactory builds the workload for one task of a job.
type WorkloadFactory func(id model.TaskID, rng *stats.RNG) machine.Workload

// JobDef is a catalog entry: everything the cluster needs to run one
// job.
type JobDef struct {
	Job model.Job
	// Profile is the job's microarchitectural character (shared by all
	// its tasks — same binary).
	Profile *interference.Profile
	// NewWorkload builds each task's workload.
	NewWorkload WorkloadFactory
	// RestartOnExit re-places a task that exits by itself (MapReduce
	// masters restart workers elsewhere).
	RestartOnExit bool
}

// Cluster is a running simulated cluster.
//
// Concurrency model: Step is two-phase. The parallel phase ticks every
// machine (machine.Tick + agent.Tick) across a bounded worker pool,
// with each machine writing only into its own node; the serial commit
// phase then walks the pending nodes in index order and applies
// everything that touches shared state — task exits and restarts via
// the scheduler, draining per-machine sample queues into the bus,
// forensics Store.Add, spec recomputation, and OnTick callbacks.
// Cluster methods themselves are not goroutine-safe: drive a Cluster
// from one goroutine and let Step do the fan-out.
type Cluster struct {
	cfg   Config
	rng   *stats.RNG
	sched *scheduler.Scheduler
	store *forensics.Store
	jobs  map[model.JobName]*JobDef
	now   time.Time

	// nodes is the fleet in index order — the order the parallel phase
	// splits work by and the commit phase applies it in, so both are
	// deterministic. midx maps a machine's name to its index.
	nodes []*node
	midx  map[string]int

	// pending[i] says node i has something for the commit phase, which
	// visits only those nodes. tickMachine sets it from the node's state
	// (each worker writes only its own machines' entries); remove and
	// restartAgent, which can stage events and metric writes on a node
	// from the serial phase, set it too. committed counts the nodes the
	// last commit phase visited.
	pending   []bool
	committed int

	// The spec tier: each node's egress forwards through a chaosLink
	// to buses[s], shard s's aggregator (bus + spec builder). ring has
	// one member per shard, named shardName(s), so its size is the LIVE
	// shard count — a reshard event swaps the ring on every surviving bus
	// and every node's egress mid-run.
	// validator is shared across every bus so quarantine accounting
	// stays fleet-wide. pipeCarryRecv/Drop carry the Stats of buses
	// retired by a shrink reshard.
	buses         []*pipeline.Bus
	ring          *pipeline.Ring
	validator     *core.SampleValidator
	pipeCarryRecv int64
	pipeCarryDrop int64

	// Causal tracing is on unless Config.TraceCapacity is negative (then
	// aggTrace and every node's store are nil): per-node span stores keep
	// writes machine-local during the parallel phase (an agent only
	// appends to its own ring), and the aggregator-side store is only
	// written from the serial commit phase — so span content is as
	// worker-count-independent as everything else. IDs are content
	// hashes, never clocks, so fingerprints stay byte-identical (see
	// obs/trace).
	aggTrace *trace.Store

	// pool runs the parallel phase (nil when cfg.Workers == 1).
	// stepFn is the persistent range closure handed to the pool.
	// tickMachine reads the current tick's time, length and day phase
	// (interference.DayPhase, shared by every machine) from stepNow,
	// stepDt and stepPhase, which only the serial part of Step writes.
	pool      *pool
	stepFn    func(start, end int)
	stepNow   time.Time
	stepDt    time.Duration
	stepPhase float64

	// Chaos state, mutated only from the serial commit phase.
	// shardDown[s] is shard s's outage state for the current tick, the
	// one flag blackout= and shardblackout= windows both set. timeline
	// is the plan's reshards, crashes and restarts in application order;
	// nextFault indexes the first not yet applied.
	shardDown []bool
	timeline  []faultEvent
	nextFault int
	fstats    FaultStats
	delayed   []delayedSpecs

	onTick   []func(now time.Time)
	exits    int64
	restarts int64
}

// node is one machine of the fleet: the machine, the agent currently
// running on it, and everything the machine keeps across agent
// lifetimes. Step's parallel phase touches only its own node.
type node struct {
	m *machine.Machine
	a *agent.Agent

	// The sample path: the agent publishes into queue during the
	// parallel phase; the commit phase drains that into egress, which
	// partitions by ring owner into one spool per live shard, each in
	// front of a chaosLink. Draining in node order keeps sample arrival
	// order — and hence the byte-exact specs — independent of the
	// worker count. backlog is whether egress's spools hold batches; the
	// commit phase and applyReshard, the only writers of egress, set it.
	queue   *pipeline.Queue
	egress  *pipeline.Egress[*chaosLink]
	backlog bool

	// exited and incidents are the parallel phase's output, applied by
	// the commit phase; their buffers are reused tick to tick. Either
	// one non-empty makes the node pending.
	exited    []model.TaskID
	incidents []core.Incident

	// What the agent writes besides samples, all of it outliving the
	// agent. events (nil without Config.Events) and the private metric
	// set (nil without Config.Registry) are drained by the commit phase
	// in node order, so shared outputs are byte-identical at any worker
	// count and ticking machines never contend on the shared series.
	// A staged event or a written metric set makes the node pending
	// (metricsWritten reports the latter without draining). trace is
	// the span ring (nil when tracing is off); restartAgent reconciles a
	// fresh agent against journal.
	events         *obs.EventBuffer
	metrics        *core.Metrics
	drainMetrics   func()
	metricsWritten func() bool
	trace          *trace.Store
	journal        *core.MemCapJournal

	// fault is the machine's fault stream, created on first draw (see
	// faultRNG); skew is its agent's constant clock offset.
	fault *rand.Rand
	skew  time.Duration
}

// New builds a cluster per cfg, with machines registered but no jobs.
// An invalid cfg.Faults plan panics: fault plans come from flags or
// literals, and a malformed one means the experiment is wrong.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if err := cfg.Faults.Validate(); err != nil {
		panic(err)
	}
	rng := stats.NewRNG(cfg.Seed)
	c := &Cluster{
		cfg:   cfg,
		rng:   rng,
		sched: scheduler.New(overcommit),
		store: forensics.NewStore(),
		jobs:  make(map[model.JobName]*JobDef),
		now:   epoch,

		nodes:   make([]*node, cfg.Machines),
		midx:    make(map[string]int, cfg.Machines),
		pending: make([]bool, cfg.Machines),
	}
	c.aggTrace = cfg.newTraceStore()
	var coreShared *core.Metrics
	if cfg.Registry != nil {
		coreShared = core.NewMetrics(cfg.Registry)
	}
	// Ingress defense in depth, same shape as cmd/cpi2aggregator:
	// hostile samples (CorruptRate) quarantine at the bus before they
	// can poison spec statistics. One validator is shared by every
	// shard so quarantine totals stay fleet-wide.
	c.validator = core.NewSampleValidator("aggregator", 256)
	c.validator.Metrics = coreShared
	c.timeline = cfg.Faults.timeline()
	// A reshard chain must be continuous: each event's From matches
	// the live shard count at its offset. A broken chain means the
	// plan is wrong — fail loudly, like Validate.
	liveShards := cfg.Shards
	for _, ev := range c.timeline {
		if ev.kind != faultReshard {
			continue
		}
		if ev.from != liveShards {
			panic(fmt.Sprintf("cluster: reshard %d>%d at %s, but the cluster has %d shards then",
				ev.from, ev.to, ev.at, liveShards))
		}
		liveShards = ev.to
	}
	if cfg.Workers > 1 {
		c.pool = newPool(cfg.Workers - 1)
	}
	nB := int(float64(cfg.Machines) * cfg.PlatformBFraction)
	for i := range c.nodes {
		name := fmt.Sprintf("machine-%04d", i)
		platform := model.PlatformA
		if i < nB {
			platform = model.PlatformB
		}
		hw := interference.DefaultMachine(platform)
		// Each machine forks its own RNG stream from the cluster seed,
		// so its noise sequence is independent of every other
		// machine's and of tick parallelism.
		n := &node{
			m:     machine.New(name, hw, cfg.CPUsPerMachine, rng.Stream("machine/"+name)),
			queue: pipeline.NewQueue(),
			// Every enforcement decision journals; restartAgent replays
			// this against live cgroup state after an agent restart.
			journal: &core.MemCapJournal{},
		}
		n.trace = cfg.newTraceStore()
		if cfg.Events != nil {
			n.events = obs.NewEventBuffer()
		}
		if cfg.Registry != nil {
			// Not a.Instrument, which points the agent straight at the
			// shared registry series, for two reasons. Every concurrently
			// ticking machine would then hammer the shared atomics (one
			// of the negative-scaling culprits). And the commit phase
			// drains the staged copies in node order, so a histogram's
			// float sum adds its terms in one order at any worker count;
			// written directly, the order is the workers' and the sum's
			// last bits move with it. Dropping the copies to save their
			// memory fails TestConcurrentStagedMetricsRenderAlike.
			n.metrics, n.drainMetrics, n.metricsWritten = obs.Stage(coreShared)
		}
		n.a = c.newAgent(n)
		c.nodes[i] = n
		c.midx[name] = i
		if err := c.sched.AddMachine(name, platform, float64(cfg.CPUsPerMachine)); err != nil {
			panic(err) // unique generated names: cannot happen
		}
	}
	c.wireSamplePath(cfg.Shards)
	for _, sk := range cfg.Faults.Skews {
		if n := c.node(sk.Machine); n != nil {
			n.skew = sk.Offset // last directive wins
		}
	}
	return c
}

// newAgent builds an agent for machine n and wires it to everything the
// machine keeps across agent lifetimes: its sample queue, span ring
// (central ring storage, not daemon memory — a fresh agent keeps
// appending to the same ring, though its batch-sequence counter resets
// like a real daemon's would), event buffer, staged metric set and cap
// journal. New and restartAgent both build agents here, so a restarted
// agent cannot be wired differently from a constructed one.
func (c *Cluster) newAgent(n *node) *agent.Agent {
	a := agent.New(n.m, c.cfg.Params, n.queue)
	a.SetTrace(n.trace)
	if n.events != nil {
		a.Manager().SetEvents(n.events)
	}
	if n.metrics != nil {
		a.SetMetrics(n.metrics)
	}
	a.Manager().SetJournal(n.journal)
	return a
}

// node returns the named machine's node (nil if unknown).
func (c *Cluster) node(name string) *node {
	if i, ok := c.midx[name]; ok {
		return c.nodes[i]
	}
	return nil
}

// Now returns the current simulation time.
func (c *Cluster) Now() time.Time { return c.now }

// Scheduler returns the central scheduler.
func (c *Cluster) Scheduler() *scheduler.Scheduler { return c.sched }

// NumShards returns the live spec-tier shard count (reshard events
// change it mid-run).
func (c *Cluster) NumShards() int { return c.ring.Size() }

// ShardBus returns shard s's pipeline (nil if out of range).
func (c *Cluster) ShardBus(s int) *pipeline.Bus {
	if s < 0 || s >= len(c.buses) {
		return nil
	}
	return c.buses[s]
}

// PipelineStats sums (received, dropped) across every live shard bus,
// plus the totals of buses retired by shrink reshards.
func (c *Cluster) PipelineStats() (received, dropped int64) {
	received, dropped = c.pipeCarryRecv, c.pipeCarryDrop
	for _, bus := range c.buses {
		r, d := bus.Stats()
		received += r
		dropped += d
	}
	return received, dropped
}

// AllSpecs returns the union of every shard's computed spec table,
// sorted by (job, platform) — the same order one builder publishes,
// so runs over any number of shards compare byte-for-byte.
func (c *Cluster) AllSpecs() []model.Spec {
	var out []model.Spec
	for _, bus := range c.buses {
		out = append(out, bus.Builder().Specs()...)
	}
	sortSpecsByKey(out)
	return out
}

// Store returns the forensics incident store.
func (c *Cluster) Store() *forensics.Store { return c.store }

// AggregatorTrace returns the aggregator-side span store (ingest,
// spec_build, spec_push stages). Per-machine stores hang off each
// agent: Cluster.Agent(name).Trace().
func (c *Cluster) AggregatorTrace() *trace.Store { return c.aggTrace }

// SpanCounts sums per-stage span counts across every store in the
// cluster (all agents plus the aggregator). Deterministic for a given
// seed at any worker count.
func (c *Cluster) SpanCounts() map[string]uint64 {
	out := make(map[string]uint64, len(trace.Stages))
	add := func(st *trace.Store) {
		for _, stage := range trace.Stages {
			out[stage] += st.StageCount(stage)
		}
	}
	add(c.aggTrace)
	for _, n := range c.nodes {
		add(n.trace)
	}
	return out
}

// Machine returns a machine by name (nil if unknown).
func (c *Cluster) Machine(name string) *machine.Machine {
	if n := c.node(name); n != nil {
		return n.m
	}
	return nil
}

// Agent returns a machine's agent (nil if unknown).
func (c *Cluster) Agent(name string) *agent.Agent {
	if n := c.node(name); n != nil {
		return n.a
	}
	return nil
}

// MachineOf returns the machine a task runs on.
func (c *Cluster) MachineOf(id model.TaskID) (*machine.Machine, bool) {
	name, ok := c.sched.MachineOf(id)
	if !ok {
		return nil, false
	}
	return c.node(name).m, true
}

// AgentOf returns the agent of the machine a task runs on.
func (c *Cluster) AgentOf(id model.TaskID) (*agent.Agent, bool) {
	name, ok := c.sched.MachineOf(id)
	if !ok {
		return nil, false
	}
	return c.node(name).a, true
}

// RNG returns the cluster's root random-stream factory.
func (c *Cluster) RNG() *stats.RNG { return c.rng }

// OnTick registers a callback invoked once per simulation tick after
// all machines and agents have ticked (e.g. workload.SearchTree's
// EndTick).
func (c *Cluster) OnTick(f func(now time.Time)) { c.onTick = append(c.onTick, f) }

// AddJob registers a job and places all its tasks. Tasks that cannot
// be placed are reported in the error, but successfully placed tasks
// stay placed.
func (c *Cluster) AddJob(def JobDef) error {
	if def.Job.Name == "" || def.NewWorkload == nil {
		return fmt.Errorf("cluster: job definition needs a name and workload factory")
	}
	if _, ok := c.jobs[def.Job.Name]; ok {
		return fmt.Errorf("cluster: job %q already added", def.Job.Name)
	}
	d := def
	c.jobs[def.Job.Name] = &d
	var failed int
	for i := 0; i < def.Job.NumTasks; i++ {
		id := model.TaskID{Job: def.Job.Name, Index: i}
		if err := c.placeTask(id, &d); err != nil {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("cluster: job %q: %d/%d tasks unplaceable", def.Job.Name, failed, def.Job.NumTasks)
	}
	return nil
}

// placeTask schedules one task and installs it where the scheduler
// put it.
func (c *Cluster) placeTask(id model.TaskID, def *JobDef) error {
	p, err := c.sched.Place(scheduler.TaskSpec{ID: id, Job: def.Job})
	if err != nil {
		return err
	}
	c.install(id, def, p)
	return nil
}

// install is the one way a task gets onto a machine and its agent: a
// fresh workload on p.Machine, registered with that machine's agent.
// It then re-places the batch work the scheduler evicted to make room,
// which preemption only ever takes from the placement machine.
// Preempted work restarts elsewhere — "simply another source of
// failures that need to be handled anyway" (§2).
func (c *Cluster) install(id model.TaskID, def *JobDef, p scheduler.Placement) {
	i := c.midx[p.Machine]
	n := c.nodes[i]
	w := def.NewWorkload(id, c.rng.Fork("workload/"+id.String()))
	if err := n.m.AddTask(id, def.Profile, w); err != nil {
		// Scheduler and machine disagree: a bug, surface loudly.
		panic(fmt.Sprintf("cluster: machine rejected scheduled task: %v", err))
	}
	n.a.RegisterTask(id, def.Job)
	for _, ev := range p.Evicted {
		c.remove(i, ev.ID)
		if evDef, ok := c.jobs[ev.ID.Job]; ok && c.placeTask(ev.ID, evDef) == nil {
			c.restarts++
		}
	}
}

// remove is the one way a task is taken off machine i and its agent
// (a task that finishes by itself leaves its machine inside
// machine.Tick, and tickMachine tells the agent). The machine may no
// longer hold the task — it can have exited this tick, or been evicted
// earlier in a crash — and the agent forgets it either way.
func (c *Cluster) remove(i int, id model.TaskID) {
	n := c.nodes[i]
	c.pending[i] = true
	_ = n.m.RemoveTask(id)
	n.a.TaskExited(id)
}

// exited books a task that has left its machine off the scheduler and,
// if its job restarts on exit, places it again. It reports whether the
// task restarted.
func (c *Cluster) exited(id model.TaskID) bool {
	c.exits++
	_ = c.sched.Remove(id)
	def, ok := c.jobs[id.Job]
	if !ok || !def.RestartOnExit || c.placeTask(id, def) != nil {
		return false
	}
	c.restarts++
	return true
}

// CrashMachine simulates a machine failure: every resident task dies;
// tasks of RestartOnExit jobs are rescheduled elsewhere (the machine
// itself stays registered and keeps accepting new work after the
// "reboot" — state on it is simply gone). §2: task death is "simply
// another source of the failures that need to be handled anyway".
// It returns how many tasks were lost and how many were restarted.
func (c *Cluster) CrashMachine(name string) (lost, restarted int, err error) {
	i, ok := c.midx[name]
	if !ok {
		return 0, 0, fmt.Errorf("cluster: no machine %q", name)
	}
	for _, id := range c.nodes[i].m.Tasks() {
		lost++
		c.remove(i, id)
		if c.exited(id) {
			restarted++
		}
	}
	return lost, restarted, nil
}

// KillAndRestart migrates a task to a different machine — the §5
// operator action for persistent offenders, taken by the caller (the
// cluster never migrates on its own). The restarted task loses its
// progress (a fresh workload is built).
func (c *Cluster) KillAndRestart(id model.TaskID) error {
	def, ok := c.jobs[id.Job]
	if !ok {
		return fmt.Errorf("cluster: unknown job %q", id.Job)
	}
	oldName, ok := c.sched.MachineOf(id)
	if !ok {
		return fmt.Errorf("cluster: %v is not placed", id)
	}
	p, err := c.sched.Migrate(scheduler.TaskSpec{ID: id, Job: def.Job})
	if err != nil {
		return err
	}
	c.remove(c.midx[oldName], id)
	c.install(id, def, p)
	return nil
}

// Step advances the simulation by one tick in two phases.
//
// Parallel phase: every machine's tick — CPU allocation, interference,
// counters, workload delivery, and the agent's sample/detect/enforce
// cycle — runs on a bounded pool of cfg.Workers goroutines. Machines
// only touch per-machine state here (their own tasks, counters, RNG
// stream, manager, and sample queue), which is what makes the fan-out
// safe.
//
// Commit phase: pending machines are visited, in index order, and
// everything that touches shared state is applied serially — scheduler
// removals and RestartOnExit re-placements, draining sample queues into
// the bus, recording incidents in the forensics store, spec
// recomputation, and OnTick callbacks. A machine is pending when
// it has something to commit (see needsCommit; remove and restartAgent
// mark the machine they touch), so a Step on which a machine did
// nothing costs the commit phase nothing for it.
//
// Because the commit order is fixed and every parallel-phase input is
// a pure function of (cluster seed, state at tick start), the same
// seed yields byte-identical incidents, specs, and counters at any
// worker count. Note the one semantic consequence of two-phase
// stepping: a task that exits mid-tick is re-placed at the tick
// boundary, so its replacement first runs on the next tick (under the
// old fully-serial loop it could start mid-tick on a higher-index
// machine — an ordering artifact, now gone).
func (c *Cluster) Step() {
	dt := c.cfg.TickInterval
	now := c.now.Add(dt)
	c.now = now

	// Parallel phase: the caller and the pool's workers claim chunks of
	// machine indices (see pool). The range closure is built once and
	// reads the tick from step fields so steady-state stepping does not
	// allocate a closure per Step.
	c.stepNow, c.stepDt, c.stepPhase = now, dt, interference.DayPhase(now)
	if c.pool == nil {
		for i := range c.nodes {
			c.tickMachine(i)
		}
	} else {
		if c.stepFn == nil {
			c.stepFn = func(start, end int) {
				for i := start; i < end; i++ {
					c.tickMachine(i)
				}
			}
		}
		c.pool.run(len(c.nodes), c.cfg.Workers, c.stepFn)
	}

	// Commit phase: machine-index order, single goroutine. A node that
	// becomes pending during the loop (a re-placement evicts from it) is
	// visited in this loop if its index is still ahead.
	c.applyFaultTimeline(now)
	c.committed = 0
	for i := range c.pending {
		if !c.pending[i] {
			continue
		}
		c.committed++
		n := c.nodes[i]
		for _, id := range n.exited {
			c.exited(id)
		}
		// Replay any spooled backlog first, then this tick's samples
		// behind it — arrival order at each shard bus stays publish
		// order. TryDrainAt (not TryDrain) so replayed batches get
		// spool spans recording how long the outage delayed them.
		n.egress.DrainAt(now)
		_ = n.queue.DrainTo(n.egress)
		n.backlog = n.egress.Len() > 0
		// Hostile-writer injection: with probability CorruptRate a
		// garbage batch arrives at the bus claiming to be from this
		// machine. It bypasses the spool (a hostile writer doesn't
		// queue politely) but not ingress validation, which must
		// quarantine every sample. Skipped while the shard owning the
		// garbage key is down — an unreachable aggregator is
		// unreachable to attackers too.
		if p := c.cfg.Faults.CorruptRate; p > 0 && c.faultRNG(i).Float64() < p {
			g := garbageSample(c.faultRNG(i), n.m.Name(), now)
			target := c.ShardOf(model.SpecKey{Job: g.Job, Platform: g.Platform})
			if !c.shardDown[target] {
				c.fstats.CorruptBatches++
				_ = c.buses[target].Publish([]model.Sample{g})
			}
		}
		for _, inc := range n.incidents {
			c.store.Add(inc)
		}
		if n.events != nil {
			n.events.DrainTo(c.cfg.Events)
		}
		if n.drainMetrics != nil {
			n.drainMetrics()
		}
		// Truncate, don't nil: the buffers are refilled by the next
		// parallel phase. Incidents are zeroed first so their suspect
		// slices don't linger past this tick.
		clear(n.incidents)
		n.exited = n.exited[:0]
		n.incidents = n.incidents[:0]
	}
	c.maybeRecompute(now)
	for _, f := range c.onTick {
		f(now)
	}
}

// maybeRecompute runs the due spec recompute on every live shard,
// honoring the fault plan: a shard that is down computes nothing — its
// keys' staleness grows, and on recovery the overdue Due check fires
// immediately — while SpecPushDelay holds freshly computed specs back
// before machines see them. Shards are visited in index order, so
// spec-push ordering is deterministic.
func (c *Cluster) maybeRecompute(now time.Time) {
	delay := c.cfg.Faults.SpecPushDelay
	for s, bus := range c.buses {
		if c.shardDown[s] {
			continue // this shard is down; only ITS keys go stale
		}
		if delay <= 0 {
			bus.MaybeRecompute(now)
			continue
		}
		if !bus.Builder().Due(now) {
			continue
		}
		specs := bus.Builder().Recompute(now)
		if len(specs) > 0 {
			c.delayed = append(c.delayed, delayedSpecs{at: now.Add(delay), specs: specs, shard: s})
		}
	}
}

// tickMachine runs one machine's parallel-phase work for the tick in
// c.stepNow, c.stepDt and c.stepPhase and records the outcome in its
// node. It must only touch that node; shared state is deferred to the
// commit phase.
func (c *Cluster) tickMachine(i int) {
	n := c.nodes[i]
	now := c.stepNow
	_, exited := n.m.TickAt(now, c.stepDt, c.stepPhase)
	for _, id := range exited {
		// The agent forgets the task before its sampling window next
		// closes, exactly as in the serial loop; the scheduler-side
		// removal happens at commit (exited).
		n.a.TaskExited(id)
	}
	// A skewed agent runs its whole cycle — sample timestamps, window
	// boundaries, cap expiry — on its broken clock; the hardware stays
	// on cluster time.
	incs := n.a.Tick(now.Add(n.skew))
	n.exited = append(n.exited[:0], exited...)
	n.incidents = append(n.incidents[:0], incs...)
	c.pending[i] = c.needsCommit(n)
}

// needsCommit reports whether node n has anything for the commit phase:
// exits or incidents, a queued sample batch, a staged event, a written
// metric set or a spool with backlog to replay. With CorruptRate set
// every node does, because its fault stream is drawn on every Step.
// Called at the end of the node's parallel-phase tick.
func (c *Cluster) needsCommit(n *node) bool {
	return len(n.exited) > 0 || len(n.incidents) > 0 || c.cfg.Faults.CorruptRate > 0 ||
		n.queue.Len() > 0 || n.events.Len() > 0 ||
		(n.metricsWritten != nil && n.metricsWritten()) || n.backlog
}

// Close releases the cluster's worker pool. Optional — an abandoned
// cluster's pool is reclaimed by a finalizer — but deterministic
// cleanup matters in benchmarks that build many clusters. Stepping
// after Close still works; the parallel phase just runs inline.
func (c *Cluster) Close() {
	if c.pool != nil {
		c.pool.stop()
	}
}

// Run advances the simulation for d.
func (c *Cluster) Run(d time.Duration) {
	steps := int(d / c.cfg.TickInterval)
	for i := 0; i < steps; i++ {
		c.Step()
	}
}

// RecomputeSpecs forces a spec recomputation and push on every live
// shard, regardless of the configured interval. Experiments call this
// to bootstrap specs from a warm-up phase without simulating a full 24
// hours. The returned union is sorted by (job, platform), matching
// what a single-shard recompute returns.
func (c *Cluster) RecomputeSpecs() []model.Spec {
	var out []model.Spec
	for _, bus := range c.buses {
		out = append(out, bus.Recompute(c.now)...)
	}
	sortSpecsByKey(out)
	return out
}

// Incidents returns a copy of all incidents raised so far, as logged
// in the forensics store.
func (c *Cluster) Incidents() []core.Incident { return c.store.Incidents() }

// Stats returns counters of task exits and restarts.
func (c *Cluster) Stats() (exits, restarts int64) { return c.exits, c.restarts }
