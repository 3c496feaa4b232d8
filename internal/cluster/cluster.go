// Package cluster is the full-system harness: a simulated compute
// cluster of machines running the CPI² node agent, a central
// scheduler placing jobs, the sample/spec pipeline, and the forensics
// store. The experiment harness (cmd/experiments, bench_test.go) and
// the examples drive everything through this package.
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
	// Overcommit is the scheduler's batch overcommit factor
	// (default 1.5).
	Overcommit float64
	// Start is the simulation epoch (default 2011-11-01 00:00 UTC,
	// the first day of the paper's Figure 5 trace).
	Start time.Time
	// TickInterval is the simulation step (default 1s).
	TickInterval time.Duration
	// AutoAvoidThreshold, when > 0, enables the §9 future-work loop
	// "provide this information to the scheduler automatically": after
	// a (victim job, antagonist job) pair appears in that many capped
	// incidents, the pair becomes a scheduler anti-affinity constraint.
	AutoAvoidThreshold int
	// AutoMigrateAfterCaps, when > 0, enables the other §9 loop: a
	// task capped that many times is killed and restarted on a
	// different machine ("our version of task migration").
	AutoMigrateAfterCaps int
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
	// TraceCapacity bounds each machine's causal-trace span ring
	// (0 selects the trace package default of 4096; rings grow lazily
	// either way). Negative disables tracing entirely — the 100k-machine
	// benchmark uses this, since even lazy per-machine rings are real
	// memory at that scale. Determinism is unaffected: traces are either
	// identically present or identically absent at any worker count.
	TraceCapacity int
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 10
	}
	if c.CPUsPerMachine <= 0 {
		c.CPUsPerMachine = 16
	}
	if c.Overcommit <= 0 {
		c.Overcommit = 1.5
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
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
// with each machine writing into its own preallocated result slot; the
// serial commit phase then walks machines in index order and applies
// everything that touches shared state — task exits and restarts via
// the scheduler, draining per-machine sample queues into the bus,
// forensics Store.Add, §9 automation, spec recomputation, and OnTick
// callbacks. Cluster methods themselves are not goroutine-safe: drive
// a Cluster from one goroutine and let Step do the fan-out.
type Cluster struct {
	cfg   Config
	rng   *stats.RNG
	sched *scheduler.Scheduler
	mach  map[string]*machine.Machine
	agent map[string]*agent.Agent
	store *forensics.Store
	jobs  map[model.JobName]*JobDef
	now   time.Time

	// The sample path, the same on every run: machine i's agent
	// publishes into queues[i]; the commit phase drains that into
	// routers[i], which partitions by ring owner into the machine's
	// per-shard spools (flattened [machine][shard]: spools[i*shards+s]);
	// each spool forwards through a chaosLink to buses[s], shard s's
	// aggregator (bus + spec builder). ring has one member per shard,
	// named shardName(s); shards is the LIVE shard count — a reshard
	// event swaps the ring, routers and spools mid-run. validator is
	// shared across every bus so quarantine accounting stays fleet-wide.
	// pipeCarryRecv/Drop carry the Stats of buses retired by a shrink
	// reshard.
	buses         []*pipeline.Bus
	shards        int
	ring          *pipeline.Ring
	routers       []*pipeline.Router
	spools        []*pipeline.Spooler
	validator     *core.SampleValidator
	pipeCarryRecv int64
	pipeCarryDrop int64

	// Index-ordered views of the fleet: the parallel phase iterates
	// these, never the maps, so work distribution and commit order are
	// deterministic.
	machs     []*machine.Machine
	agents    []*agent.Agent
	queues    []*pipeline.Queue
	slots     []stepSlot // preallocated per-machine result slots
	eventBufs []*obs.EventBuffer

	// Causal tracing is always on: per-agent span stores keep writes
	// machine-local during the parallel phase (an agent only appends to
	// its own ring), and the aggregator-side store is only written from
	// the serial commit phase — so span content is as worker-count-
	// independent as everything else. IDs are content hashes, never
	// clocks, so fingerprints stay byte-identical (see obs/trace).
	traces   []*trace.Store
	aggTrace *trace.Store

	// pool runs the parallel phase (nil when cfg.Workers == 1).
	// stepFn is the persistent range closure handed to the pool; it
	// reads the current tick's time from stepNow/stepDt, which only the
	// serial part of Step writes.
	pool    *pool
	stepFn  func(start, end int)
	stepNow time.Time
	stepDt  time.Duration

	// Metric staging (nil without Config.Registry): each machine's agent
	// writes a private copy of the core metric set during the parallel
	// phase; the commit phase drains the copies into the shared registry
	// series in machine-index order — same staging idea as eventBufs,
	// applied to metrics, so concurrently ticking machines never contend
	// on (or reorder float additions into) the shared series.
	staged []stagedMetrics

	// Chaos state, mutated only from the serial commit phase.
	blackout bool
	// shardDown[s] mirrors the plan's ShardBlackouts for the current
	// tick. reconnectUntil, indexed like spools, holds each (machine,
	// shard) link's full-jitter reconnect deadline after a shard
	// blackout lifts — links refuse traffic (spooling it) until their
	// deadline, so a fleet does not thunder back into a freshly
	// recovered shard in lockstep.
	shardDown      []bool
	reconnectUntil []time.Time
	reshards       []ReshardEvent // sorted by At
	reshardIdx     int
	fstats         FaultStats
	crashes        []CrashEvent // sorted by (At, Machine)
	crashIdx       int
	delayed        []delayedSpecs
	// journals hold each machine's cap journal (crash-safe actuation:
	// restartAgent reconciles a fresh agent against its machine's
	// journal). faultRNGs are the per-machine fault streams, created on
	// first draw (see faultRNG); midx maps machine name → fleet index.
	// skewByIdx is each agent's constant clock offset (read from the
	// parallel phase, written only at New — no races).
	journals      []*core.MemCapJournal
	faultRNGs     []*rand.Rand
	midx          map[string]int
	agentRestarts []RestartEvent // sorted by (At, Machine)
	restartIdx    int
	skewByIdx     []time.Duration

	onTick    []func(now time.Time)
	incidents []core.Incident
	exits     int64
	restarts  int64

	// §9 automation state.
	pairCounts map[[2]model.JobName]int
	capCounts  map[model.TaskID]int
	avoided    map[[2]model.JobName]bool
	migrations int64
}

// stagedMetrics is one machine's obs.Stage copy of the core metric set,
// with the drain that folds it into the registered series. Like the
// span ring and the cap journal it belongs to the machine, not to
// whichever agent currently runs on it.
type stagedMetrics struct {
	core  *core.Metrics
	drain func()
}

// stepSlot is one machine's parallel-phase output, applied during the
// serial commit phase.
type stepSlot struct {
	exited    []model.TaskID
	incidents []core.Incident
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
		sched: scheduler.New(cfg.Overcommit),
		mach:  make(map[string]*machine.Machine),
		agent: make(map[string]*agent.Agent),
		store: forensics.NewStore(),
		jobs:  make(map[model.JobName]*JobDef),
		now:   cfg.Start,

		shards: cfg.Shards,

		pairCounts: make(map[[2]model.JobName]int),
		capCounts:  make(map[model.TaskID]int),
		avoided:    make(map[[2]model.JobName]bool),

		traces: make([]*trace.Store, cfg.Machines),
	}
	if cfg.TraceCapacity >= 0 {
		c.aggTrace = trace.NewStore(cfg.TraceCapacity)
	}
	var coreShared *core.Metrics
	if cfg.Registry != nil {
		coreShared = core.NewMetrics(cfg.Registry)
		c.staged = make([]stagedMetrics, cfg.Machines)
	}
	// Ingress defense in depth, same shape as cmd/cpi2aggregator:
	// hostile samples (CorruptRate) quarantine at the bus before they
	// can poison spec statistics. One validator is shared by every
	// shard so quarantine totals stay fleet-wide.
	c.validator = core.NewSampleValidator("aggregator", 256)
	c.validator.Metrics = coreShared
	c.reshards = cfg.Faults.sortedReshards()
	// A reshard chain must be continuous: each event's From matches
	// the live shard count at its offset. A broken chain means the
	// plan is wrong — fail loudly, like Validate.
	liveShards := cfg.Shards
	for _, ev := range c.reshards {
		if ev.From != liveShards {
			panic(fmt.Sprintf("cluster: reshard %d>%d at %s, but the cluster has %d shards then",
				ev.From, ev.To, ev.At, liveShards))
		}
		liveShards = ev.To
	}
	if cfg.Workers > 1 {
		c.pool = newPool(cfg.Workers - 1)
	}
	nB := int(float64(cfg.Machines) * cfg.PlatformBFraction)
	c.machs = make([]*machine.Machine, cfg.Machines)
	c.agents = make([]*agent.Agent, cfg.Machines)
	c.queues = make([]*pipeline.Queue, cfg.Machines)
	c.slots = make([]stepSlot, cfg.Machines)
	if cfg.Events != nil {
		c.eventBufs = make([]*obs.EventBuffer, cfg.Machines)
	}
	c.crashes = cfg.Faults.sortedCrashes()
	c.agentRestarts = cfg.Faults.sortedRestarts()
	c.journals = make([]*core.MemCapJournal, cfg.Machines)
	c.faultRNGs = make([]*rand.Rand, cfg.Machines)
	c.midx = make(map[string]int, cfg.Machines)
	c.skewByIdx = make([]time.Duration, cfg.Machines)
	for i := 0; i < cfg.Machines; i++ {
		name := fmt.Sprintf("machine-%04d", i)
		platform := model.PlatformA
		if i < nB {
			platform = model.PlatformB
		}
		hw := interference.DefaultMachine(platform)
		// Each machine forks its own RNG stream from the cluster seed,
		// so its noise sequence is independent of every other
		// machine's and of tick parallelism.
		m := machine.New(name, hw, cfg.CPUsPerMachine, rng.Stream("machine/"+name))
		// The agent publishes into a per-machine queue during the
		// parallel phase; the commit phase drains queues into the bus
		// in machine order, keeping sample arrival order — and hence
		// the byte-exact specs — independent of the worker count.
		c.machs[i] = m
		c.queues[i] = pipeline.NewQueue()
		if cfg.TraceCapacity >= 0 {
			c.traces[i] = trace.NewStore(cfg.TraceCapacity)
		}
		// Events go through a per-machine staging buffer: agents emit
		// during the parallel phase, the commit phase drains buffers in
		// machine-index order into the shared log.
		if cfg.Events != nil {
			c.eventBufs[i] = obs.NewEventBuffer()
		}
		if cfg.Registry != nil {
			// Not a.Instrument: that points the agent straight at the
			// shared registry series, which every concurrently ticking
			// machine would then hammer (the shared atomics were one of
			// the negative-scaling culprits). Each machine gets a private
			// copy, drained serially at commit.
			st := &c.staged[i]
			st.core, st.drain = obs.Stage(coreShared)
		}
		// Every enforcement decision journals; restartAgent replays
		// this against live cgroup state after an agent restart.
		c.journals[i] = &core.MemCapJournal{}
		a := c.newAgent(i)
		c.midx[name] = i
		c.mach[name] = m
		c.agent[name] = a
		c.agents[i] = a
		if err := c.sched.AddMachine(name, platform, float64(cfg.CPUsPerMachine)); err != nil {
			panic(err) // unique generated names: cannot happen
		}
	}
	c.growBuses(cfg.Shards)
	c.wireSamplePath(cfg.Shards)
	for _, sk := range cfg.Faults.Skews {
		if i, ok := c.midx[sk.Machine]; ok {
			c.skewByIdx[i] = sk.Offset // last directive wins
		}
	}
	return c
}

// newAgent builds an agent for machine i and wires it to everything the
// machine keeps across agent lifetimes: its sample queue, span ring
// (central ring storage, not daemon memory — a fresh agent keeps
// appending to the same ring, though its batch-sequence counter resets
// like a real daemon's would), event buffer, staged metric sets and cap
// journal. New and restartAgent both build agents here, so a restarted
// agent cannot be wired differently from a constructed one.
func (c *Cluster) newAgent(i int) *agent.Agent {
	a := agent.New(c.machs[i], c.cfg.Params, c.queues[i])
	a.SetTrace(c.traces[i])
	if c.eventBufs != nil {
		a.Manager().SetEvents(c.eventBufs[i])
	}
	if c.staged != nil {
		a.SetMetrics(c.staged[i].core)
	}
	a.Manager().SetJournal(c.journals[i])
	return a
}

// Now returns the current simulation time.
func (c *Cluster) Now() time.Time { return c.now }

// Scheduler returns the central scheduler.
func (c *Cluster) Scheduler() *scheduler.Scheduler { return c.sched }

// Bus returns the in-process pipeline of shard 0 — with the default
// single shard, THE pipeline. Sharded callers use ShardBus/NumShards
// or the merged views (AllSpecs, PipelineStats).
func (c *Cluster) Bus() *pipeline.Bus { return c.buses[0] }

// NumShards returns the live spec-tier shard count (reshard events
// change it mid-run).
func (c *Cluster) NumShards() int { return c.shards }

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
// sorted by (job, platform) — the same order a single-shard builder
// publishes, so sharded and unsharded runs compare byte-for-byte.
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
	stores := append([]*trace.Store{c.aggTrace}, c.traces...)
	for _, st := range stores {
		for _, stage := range trace.Stages {
			out[stage] += st.StageCount(stage)
		}
	}
	return out
}

// Machine returns a machine by name (nil if unknown).
func (c *Cluster) Machine(name string) *machine.Machine { return c.mach[name] }

// Agent returns a machine's agent (nil if unknown).
func (c *Cluster) Agent(name string) *agent.Agent { return c.agent[name] }

// MachineOf returns the machine a task runs on.
func (c *Cluster) MachineOf(id model.TaskID) (*machine.Machine, bool) {
	name, ok := c.sched.MachineOf(id)
	if !ok {
		return nil, false
	}
	return c.mach[name], true
}

// AgentOf returns the agent of the machine a task runs on.
func (c *Cluster) AgentOf(id model.TaskID) (*agent.Agent, bool) {
	name, ok := c.sched.MachineOf(id)
	if !ok {
		return nil, false
	}
	return c.agent[name], true
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

// placeTask schedules one task and installs it on its machine,
// re-placing any batch tasks preempted to make room.
func (c *Cluster) placeTask(id model.TaskID, def *JobDef) error {
	p, err := c.sched.Place(scheduler.TaskSpec{ID: id, Job: def.Job})
	if err != nil {
		return err
	}
	c.installTask(id, def, p.Machine)
	for _, ev := range p.Evicted {
		c.uninstallTask(ev.ID)
		evDef, ok := c.jobs[ev.ID.Job]
		if !ok {
			continue
		}
		// Preempted batch work restarts elsewhere — "simply another
		// source of failures that need to be handled anyway" (§2).
		if err := c.placeTask(ev.ID, evDef); err == nil {
			c.restarts++
		}
	}
	return nil
}

func (c *Cluster) installTask(id model.TaskID, def *JobDef, machineName string) {
	m := c.mach[machineName]
	w := def.NewWorkload(id, c.rng.Fork("workload/"+id.String()))
	if err := m.AddTask(id, def.Job, def.Profile, w); err != nil {
		// Scheduler and machine disagree: a bug, surface loudly.
		panic(fmt.Sprintf("cluster: machine rejected scheduled task: %v", err))
	}
	c.agent[machineName].RegisterTask(id, def.Job)
}

func (c *Cluster) uninstallTask(id model.TaskID) {
	name, ok := c.sched.MachineOf(id)
	if ok {
		// Still on the scheduler's books (eviction path removes it
		// before we get here, so ok is false then).
		_ = c.sched.Remove(id)
	}
	if name == "" {
		// Eviction already removed the booking; find the machine by
		// scanning (rare path).
		for n, m := range c.mach {
			if m.Task(id) != nil {
				name = n
				break
			}
		}
	}
	if name == "" {
		return
	}
	if m := c.mach[name]; m.Task(id) != nil {
		_ = m.RemoveTask(id)
	}
	c.agent[name].TaskExited(id)
}

// CrashMachine simulates a machine failure: every resident task dies;
// tasks of RestartOnExit jobs are rescheduled elsewhere (the machine
// itself stays registered and keeps accepting new work after the
// "reboot" — state on it is simply gone). §2: task death is "simply
// another source of the failures that need to be handled anyway".
// It returns how many tasks were lost and how many were restarted.
func (c *Cluster) CrashMachine(name string) (lost, restarted int, err error) {
	m, ok := c.mach[name]
	if !ok {
		return 0, 0, fmt.Errorf("cluster: no machine %q", name)
	}
	a := c.agent[name]
	for _, id := range m.Tasks() {
		lost++
		_ = m.RemoveTask(id)
		a.TaskExited(id)
		_ = c.sched.Remove(id)
		c.exits++
		if def, ok := c.jobs[id.Job]; ok && def.RestartOnExit {
			if err := c.placeTask(id, def); err == nil {
				restarted++
				c.restarts++
			}
		}
	}
	return lost, restarted, nil
}

// KillAndRestart migrates a task to a different machine — the §5
// operator action for persistent offenders. The restarted task loses
// its progress (a fresh workload is built).
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
	_ = c.mach[oldName].RemoveTask(id)
	c.agent[oldName].TaskExited(id)
	c.installTask(id, def, p.Machine)
	for _, ev := range p.Evicted {
		c.uninstallTask(ev.ID)
		if evDef, ok := c.jobs[ev.ID.Job]; ok {
			if err := c.placeTask(ev.ID, evDef); err == nil {
				c.restarts++
			}
		}
	}
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
// Commit phase: machines are visited in index order and everything
// that touches shared state is applied serially — scheduler removals
// and RestartOnExit re-placements, draining sample queues into the
// bus, recording incidents in the forensics store, §9 automation,
// spec recomputation, and OnTick callbacks.
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

	// Parallel phase: contiguous machine ranges on the persistent pool.
	// (The first version of this fan-out spawned fresh goroutines every
	// Step and pulled indices one at a time off a shared atomic — the
	// coordination cost made workers=4 slower than workers=1; see pool.)
	// The range closure is built once and reads now/dt from step fields
	// so steady-state stepping does not allocate a closure per Step.
	n := len(c.machs)
	c.stepNow, c.stepDt = now, dt
	if c.pool == nil {
		for i := 0; i < n; i++ {
			c.tickMachine(i, now, dt)
		}
	} else {
		if c.stepFn == nil {
			c.stepFn = func(start, end int) {
				for i := start; i < end; i++ {
					c.tickMachine(i, c.stepNow, c.stepDt)
				}
			}
		}
		c.pool.run(n, c.cfg.Workers, c.stepFn)
	}

	// Commit phase: machine-index order, single goroutine.
	c.applyFaultTimeline(now)
	for i := 0; i < n; i++ {
		slot := &c.slots[i]
		for _, id := range slot.exited {
			c.exits++
			_ = c.sched.Remove(id)
			if def, ok := c.jobs[id.Job]; ok && def.RestartOnExit {
				if err := c.placeTask(id, def); err == nil {
					c.restarts++
				}
			}
		}
		// Replay any spooled backlog first, then this tick's samples
		// behind it — arrival order at each shard bus stays publish
		// order. TryDrainAt (not TryDrain) so replayed batches get
		// spool spans recording how long the outage delayed them.
		for _, sp := range c.spools[i*c.shards : (i+1)*c.shards] {
			_, _ = sp.TryDrainAt(now)
		}
		_ = c.queues[i].DrainTo(c.routers[i])
		// Hostile-writer injection: with probability CorruptRate a
		// garbage batch arrives at the bus claiming to be from this
		// machine. It bypasses the spool (a hostile writer doesn't
		// queue politely) but not ingress validation, which must
		// quarantine every sample. Skipped during blackouts — an
		// unreachable aggregator is unreachable to attackers too,
		// which includes the one shard owning the garbage key.
		if p := c.cfg.Faults.CorruptRate; p > 0 && !c.blackout && c.faultRNG(i).Float64() < p {
			g := garbageSample(c.faultRNG(i), c.machs[i].Name(), now)
			target := c.ShardOf(model.SpecKey{Job: g.Job, Platform: g.Platform})
			if !c.shardDown[target] {
				c.fstats.CorruptBatches++
				_ = c.buses[target].Publish([]model.Sample{g})
			}
		}
		for _, inc := range slot.incidents {
			c.incidents = append(c.incidents, inc)
			c.store.Add(inc)
			c.automate(inc)
		}
		if c.eventBufs != nil {
			c.eventBufs[i].DrainTo(c.cfg.Events)
		}
		if c.staged != nil {
			c.staged[i].drain()
		}
		// Truncate, don't nil: the slot buffers are refilled by the next
		// parallel phase. Incidents are zeroed first so their suspect
		// slices don't linger past this tick.
		for j := range slot.incidents {
			slot.incidents[j] = core.Incident{}
		}
		slot.exited = slot.exited[:0]
		slot.incidents = slot.incidents[:0]
	}
	c.maybeRecompute(now)
	for _, f := range c.onTick {
		f(now)
	}
}

// maybeRecompute runs the due spec recompute on every live shard,
// honoring the fault plan: a blacked-out aggregator (global or
// per-shard) computes nothing — its staleness grows, and on recovery
// the overdue Due check fires immediately — while SpecPushDelay holds
// freshly computed specs back before machines see them. Shards are
// visited in index order, so spec-push ordering is deterministic.
func (c *Cluster) maybeRecompute(now time.Time) {
	if c.blackout {
		return // aggregator is down; staleness grows with the blackout
	}
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

// tickMachine runs one machine's parallel-phase work and records the
// outcome in its slot. It must only touch machine-local state; shared
// state is deferred to the commit phase.
func (c *Cluster) tickMachine(i int, now time.Time, dt time.Duration) {
	m, a := c.machs[i], c.agents[i]
	_, exited := m.Tick(now, dt)
	for _, id := range exited {
		// The agent forgets the task before its sampling window next
		// closes, exactly as in the serial loop; the scheduler-side
		// removal happens at commit.
		a.TaskExited(id)
	}
	// A skewed agent runs its whole cycle — sample timestamps, window
	// boundaries, cap expiry — on its broken clock; the hardware stays
	// on cluster time.
	incs := a.Tick(now.Add(c.skewByIdx[i]))
	slot := &c.slots[i]
	slot.exited = append(slot.exited[:0], exited...)
	slot.incidents = append(slot.incidents[:0], incs...)
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

// automate applies the §9 feedback loops to one incident.
func (c *Cluster) automate(inc core.Incident) {
	if inc.Decision.Action != core.ActionCap {
		return
	}
	target := inc.Decision.Target

	if c.cfg.AutoAvoidThreshold > 0 {
		pair := [2]model.JobName{inc.VictimJob, target.Job}
		c.pairCounts[pair]++
		if c.pairCounts[pair] >= c.cfg.AutoAvoidThreshold && !c.avoided[pair] {
			c.avoided[pair] = true
			c.sched.AvoidColocation(pair[0], pair[1])
		}
	}
	if c.cfg.AutoMigrateAfterCaps > 0 {
		c.capCounts[target]++
		if c.capCounts[target] >= c.cfg.AutoMigrateAfterCaps {
			if err := c.KillAndRestart(target); err == nil {
				c.migrations++
				c.capCounts[target] = 0
			}
		}
	}
}

// AutoActions returns counters for the §9 automation: anti-affinity
// pairs registered and automatic migrations performed.
func (c *Cluster) AutoActions() (avoidPairs int, migrations int64) {
	return len(c.avoided), c.migrations
}

// Incidents returns all incidents raised so far.
func (c *Cluster) Incidents() []core.Incident {
	out := make([]core.Incident, len(c.incidents))
	copy(out, c.incidents)
	return out
}

// Stats returns counters of task exits and restarts.
func (c *Cluster) Stats() (exits, restarts int64) { return c.exits, c.restarts }
