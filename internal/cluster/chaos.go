package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// Window is a half-open interval of simulation time, as offsets from
// the simulation epoch (Config.Start): [From, To).
type Window struct {
	From time.Duration
	To   time.Duration
}

func (w Window) contains(d time.Duration) bool { return d >= w.From && d < w.To }

// String renders the window in the FaultPlan directive form.
func (w Window) String() string { return fmt.Sprintf("%s+%s", w.From, w.To-w.From) }

// CrashEvent schedules one machine crash at an offset from the
// simulation epoch.
type CrashEvent struct {
	At      time.Duration
	Machine string
}

// RestartEvent schedules one agent restart: the daemon process dies
// and is immediately replaced. All in-memory agent state — spec cache,
// sampling windows, the active-cap table — is lost; the machine itself
// (tasks, cgroups, caps, leases) survives. The replacement agent
// re-registers resident tasks, refetches current specs, and reconciles
// its cap journal against live cgroup state, so a cap applied by the
// dead agent is either re-adopted (and keeps expiring on its original
// schedule) or released as an orphan — never stranded.
type RestartEvent struct {
	At      time.Duration
	Machine string
}

// ShardBlackoutEvent takes ONE aggregator shard offline for a window:
// sample batches routed to that shard spool on each machine, its spec
// recompute stalls (staleness grows for its keys only), and every
// other shard keeps building, pushing, and capping normally. This is
// the failure-domain payoff of sharding the spec tier — the blast
// radius of an aggregator loss shrinks from "every job" to "the jobs
// this shard owns".
type ShardBlackoutEvent struct {
	Shard  int
	Window Window
}

// ReshardEvent changes the live shard count From→To at an offset:
// new shards spin up (or retiring ones drain), the consistent-hash
// ring is rebuilt, and only the moved keys' builder state is handed
// off through the checkpoint machinery — specs stay byte-identical
// across the split. From must match the live shard count at At (the
// events chain: Config.Shards → first event's From, its To → the next
// event's From, …).
type ReshardEvent struct {
	At       time.Duration
	From, To int
}

// SkewEvent gives one machine's agent a constant clock offset: the
// agent ticks (and stamps samples) at cluster time + Offset while the
// hardware stays on cluster time — a node with a broken NTP daemon.
// When a machine appears in several skew directives, the last wins.
type SkewEvent struct {
	Machine string
	Offset  time.Duration
}

// FaultPlan describes the failure timeline injected into a simulated
// cluster: the paper's pipeline is explicitly lossy (§3) and the
// system must degrade gracefully, so the chaos harness makes every
// degradation mode reproducible. All faults are driven from the
// cluster's deterministic RNG streams and applied in the serial commit
// phase, so a faulted run is exactly as worker-count-independent as a
// clean one.
type FaultPlan struct {
	// AggregatorBlackouts are intervals during which the aggregator is
	// unreachable: sample batches can't be delivered (they spool on each
	// machine) and no spec recompute or push happens.
	AggregatorBlackouts []Window
	// SampleLoss is the per-batch probability that the machine→
	// aggregator link silently eats a batch (at-most-once delivery,
	// §3's "losing a sample is harmless"). 0 ≤ SampleLoss ≤ 1.
	SampleLoss float64
	// SpecPushDelay postpones delivery of recomputed specs to machines
	// by this much — a slow spec-push pipe.
	SpecPushDelay time.Duration
	// Crashes are scheduled machine failures (CrashMachine semantics:
	// resident tasks die, RestartOnExit jobs re-place elsewhere).
	Crashes []CrashEvent
	// Restarts are scheduled agent restarts: agent state is lost, the
	// machine survives, and the replacement reconciles the cap journal.
	// When a crash and a restart land on the same tick, crashes apply
	// first.
	Restarts []RestartEvent
	// CorruptRate is the per-machine per-tick probability that a hostile
	// or buggy writer ships one batch of garbage samples (NaN/Inf/
	// negative CPI or usage) to the aggregator. The ingress validator
	// must quarantine every one of them; specs stay byte-identical to a
	// corruption-free run. 0 ≤ CorruptRate ≤ 1.
	CorruptRate float64
	// ShardBlackouts take individual aggregator shards offline (needs
	// Config.Shards > 1 to be interesting; a shard index with no live
	// shard behind it simply never fires).
	ShardBlackouts []ShardBlackoutEvent
	// Reshards are live shard-count changes (see ReshardEvent).
	Reshards []ReshardEvent
	// ReconnectSpread bounds the full-jitter reconnect delay each
	// machine draws when a blacked-out shard comes back: machine i's
	// link to the recovered shard stays closed for uniform(0,
	// ReconnectSpread] — decorrelated via the per-machine fault RNG
	// stream, so the fleet does not thunder back in lockstep. Default
	// 5s.
	ReconnectSpread time.Duration
	// Skews are per-machine agent clock offsets.
	Skews []SkewEvent
	// SpoolBatches / SpoolBytes budget each machine's sample spool
	// (defaults: pipeline.SpoolConfig defaults).
	SpoolBatches int
	SpoolBytes   int64
}

// Validate checks the plan for structural sanity.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	if !(p.SampleLoss >= 0 && p.SampleLoss <= 1) { // rejects NaN too
		return fmt.Errorf("cluster: sample loss %v outside [0,1]", p.SampleLoss)
	}
	if p.SpecPushDelay < 0 {
		return errors.New("cluster: negative spec push delay")
	}
	if p.SpoolBatches < 0 || p.SpoolBytes < 0 {
		return errors.New("cluster: negative spool budget")
	}
	for _, w := range p.AggregatorBlackouts {
		if w.From < 0 || w.To <= w.From {
			return fmt.Errorf("cluster: bad blackout window %v..%v", w.From, w.To)
		}
	}
	for _, cr := range p.Crashes {
		if cr.At < 0 {
			return fmt.Errorf("cluster: crash of %q at negative offset %v", cr.Machine, cr.At)
		}
		if cr.Machine == "" {
			return errors.New("cluster: crash with empty machine name")
		}
	}
	for _, r := range p.Restarts {
		if r.At < 0 {
			return fmt.Errorf("cluster: restart of %q at negative offset %v", r.Machine, r.At)
		}
		if r.Machine == "" {
			return errors.New("cluster: restart with empty machine name")
		}
	}
	if !(p.CorruptRate >= 0 && p.CorruptRate <= 1) { // rejects NaN too
		return fmt.Errorf("cluster: corrupt rate %v outside [0,1]", p.CorruptRate)
	}
	for _, sb := range p.ShardBlackouts {
		if sb.Shard < 0 {
			return fmt.Errorf("cluster: shard blackout of negative shard %d", sb.Shard)
		}
		if sb.Window.From < 0 || sb.Window.To <= sb.Window.From {
			return fmt.Errorf("cluster: bad shard blackout window %v..%v", sb.Window.From, sb.Window.To)
		}
	}
	for _, rs := range p.Reshards {
		if rs.At < 0 {
			return fmt.Errorf("cluster: reshard at negative offset %v", rs.At)
		}
		if rs.From < 1 || rs.To < 1 {
			return fmt.Errorf("cluster: reshard %d>%d needs at least one shard on both sides", rs.From, rs.To)
		}
	}
	if p.ReconnectSpread < 0 {
		return errors.New("cluster: negative reconnect spread")
	}
	for _, sk := range p.Skews {
		if sk.Machine == "" {
			return errors.New("cluster: skew with empty machine name")
		}
	}
	return nil
}

// String renders the plan in the directive syntax ParseFaultPlan
// accepts, so plans round-trip through flags and logs.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	for _, w := range p.AggregatorBlackouts {
		parts = append(parts, "blackout="+w.String())
	}
	if p.SampleLoss > 0 {
		parts = append(parts, "loss="+strconv.FormatFloat(p.SampleLoss, 'g', -1, 64))
	}
	if p.SpecPushDelay > 0 {
		parts = append(parts, "specdelay="+p.SpecPushDelay.String())
	}
	for _, cr := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%s@%s", cr.Machine, cr.At))
	}
	for _, r := range p.Restarts {
		parts = append(parts, fmt.Sprintf("restart=%s@%s", r.Machine, r.At))
	}
	if p.CorruptRate > 0 {
		parts = append(parts, "corrupt="+strconv.FormatFloat(p.CorruptRate, 'g', -1, 64))
	}
	for _, sb := range p.ShardBlackouts {
		parts = append(parts, fmt.Sprintf("shardblackout=%d@%s", sb.Shard, sb.Window.String()))
	}
	for _, rs := range p.Reshards {
		parts = append(parts, fmt.Sprintf("reshard=%d>%d@%s", rs.From, rs.To, rs.At))
	}
	if p.ReconnectSpread > 0 {
		parts = append(parts, "reconnect="+p.ReconnectSpread.String())
	}
	for _, sk := range p.Skews {
		parts = append(parts, fmt.Sprintf("skew=%s@%s", sk.Machine, sk.Offset))
	}
	if p.SpoolBatches > 0 {
		parts = append(parts, "spool="+strconv.Itoa(p.SpoolBatches))
	}
	if p.SpoolBytes > 0 {
		parts = append(parts, "spoolbytes="+strconv.FormatInt(p.SpoolBytes, 10))
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses a scenario's chaos syntax: comma-separated
// directives, each key=value.
//
//	blackout=OFFSET+DURATION   aggregator blackout (repeatable)
//	loss=FRACTION              per-batch sample loss in [0,1]
//	specdelay=DURATION         delayed spec pushes
//	crash=MACHINE@OFFSET       machine crash (repeatable)
//	restart=MACHINE@OFFSET     agent restart: state lost, machine and
//	                           cgroup caps survive, journal reconciled
//	                           (repeatable)
//	corrupt=FRACTION           per-machine per-tick garbage-batch
//	                           injection probability in [0,1]
//	shardblackout=S@OFF+DUR    one aggregator shard offline for the
//	                           window; other shards unaffected
//	                           (repeatable)
//	reshard=N>M@OFFSET         live shard-count change with checkpoint
//	                           handoff of moved keys ("N→M" also
//	                           accepted; repeatable, must chain)
//	reconnect=DURATION         full-jitter reconnect spread after a
//	                           shard blackout lifts (default 5s)
//	skew=MACHINE@±DURATION     agent clock offset (repeatable)
//	spool=N                    per-machine spool budget, batches
//	spoolbytes=N               per-machine spool budget, bytes
//
// Durations use Go syntax ("10m", "90s"). An empty string yields an
// empty (but non-nil) plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: fault directive %q is not key=value", part)
		}
		switch key {
		case "blackout":
			from, dur, ok := strings.Cut(val, "+")
			if !ok {
				return nil, fmt.Errorf("cluster: blackout %q is not OFFSET+DURATION", val)
			}
			f, err := time.ParseDuration(from)
			if err != nil {
				return nil, fmt.Errorf("cluster: blackout offset: %w", err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return nil, fmt.Errorf("cluster: blackout duration: %w", err)
			}
			p.AggregatorBlackouts = append(p.AggregatorBlackouts, Window{From: f, To: f + d})
		case "loss":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: loss: %w", err)
			}
			p.SampleLoss = f
		case "specdelay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("cluster: specdelay: %w", err)
			}
			p.SpecPushDelay = d
		case "crash":
			mach, at, ok := strings.Cut(val, "@")
			if !ok || mach == "" {
				return nil, fmt.Errorf("cluster: crash %q is not MACHINE@OFFSET", val)
			}
			d, err := time.ParseDuration(at)
			if err != nil {
				return nil, fmt.Errorf("cluster: crash offset: %w", err)
			}
			p.Crashes = append(p.Crashes, CrashEvent{At: d, Machine: mach})
		case "restart":
			mach, at, ok := strings.Cut(val, "@")
			if !ok || mach == "" {
				return nil, fmt.Errorf("cluster: restart %q is not MACHINE@OFFSET", val)
			}
			d, err := time.ParseDuration(at)
			if err != nil {
				return nil, fmt.Errorf("cluster: restart offset: %w", err)
			}
			p.Restarts = append(p.Restarts, RestartEvent{At: d, Machine: mach})
		case "corrupt":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: corrupt: %w", err)
			}
			p.CorruptRate = f
		case "shardblackout":
			shard, win, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("cluster: shardblackout %q is not SHARD@OFFSET+DURATION", val)
			}
			n, err := strconv.Atoi(shard)
			if err != nil {
				return nil, fmt.Errorf("cluster: shardblackout shard: %w", err)
			}
			from, dur, ok := strings.Cut(win, "+")
			if !ok {
				return nil, fmt.Errorf("cluster: shardblackout window %q is not OFFSET+DURATION", win)
			}
			f, err := time.ParseDuration(from)
			if err != nil {
				return nil, fmt.Errorf("cluster: shardblackout offset: %w", err)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return nil, fmt.Errorf("cluster: shardblackout duration: %w", err)
			}
			p.ShardBlackouts = append(p.ShardBlackouts, ShardBlackoutEvent{
				Shard: n, Window: Window{From: f, To: f + d},
			})
		case "reshard":
			split, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("cluster: reshard %q is not N>M@OFFSET", val)
			}
			fromS, toS, ok := strings.Cut(split, ">")
			if !ok {
				fromS, toS, ok = strings.Cut(split, "→")
			}
			if !ok {
				return nil, fmt.Errorf("cluster: reshard %q is not N>M@OFFSET", val)
			}
			from, err := strconv.Atoi(fromS)
			if err != nil {
				return nil, fmt.Errorf("cluster: reshard from: %w", err)
			}
			to, err := strconv.Atoi(toS)
			if err != nil {
				return nil, fmt.Errorf("cluster: reshard to: %w", err)
			}
			d, err := time.ParseDuration(at)
			if err != nil {
				return nil, fmt.Errorf("cluster: reshard offset: %w", err)
			}
			p.Reshards = append(p.Reshards, ReshardEvent{At: d, From: from, To: to})
		case "reconnect":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("cluster: reconnect: %w", err)
			}
			p.ReconnectSpread = d
		case "skew":
			mach, off, ok := strings.Cut(val, "@")
			if !ok || mach == "" {
				return nil, fmt.Errorf("cluster: skew %q is not MACHINE@OFFSET", val)
			}
			d, err := time.ParseDuration(off)
			if err != nil {
				return nil, fmt.Errorf("cluster: skew offset: %w", err)
			}
			p.Skews = append(p.Skews, SkewEvent{Machine: mach, Offset: d})
		case "spool":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("cluster: spool: %w", err)
			}
			p.SpoolBatches = n
		case "spoolbytes":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: spoolbytes: %w", err)
			}
			p.SpoolBytes = n
		default:
			return nil, fmt.Errorf("cluster: unknown fault directive %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// FaultStats are the observable consequences of a FaultPlan.
type FaultStats struct {
	// LostBatches were silently eaten by lossy links (SampleLoss).
	LostBatches int64
	// SpoolDropped were evicted from machine spools over budget.
	SpoolDropped int64
	// SpoolReplayed were delivered late, after an outage, via spools.
	SpoolReplayed int64
	// SpooledBatches are currently sitting in machine spools.
	SpooledBatches int64
	// BlackoutTicks counts simulation ticks spent inside a blackout.
	BlackoutTicks int64
	// ShardBlackoutTicks counts (tick × down shard) pairs spent inside
	// shard blackouts — two shards down for one tick counts 2.
	ShardBlackoutTicks int64
	// ReshardsApplied / MovedKeys account executed ReshardEvents: how
	// many ring changes ran and how many job×platform keys were handed
	// off between shards (checkpoint frames, not re-aggregation).
	ReshardsApplied int
	MovedKeys       int
	// DelayedSpecPushes counts spec-push rounds deferred by
	// SpecPushDelay and later delivered.
	DelayedSpecPushes int64
	// CrashesApplied / TasksLost / TasksRestarted account the executed
	// CrashEvents.
	CrashesApplied int
	TasksLost      int
	TasksRestarted int
	// RestartsApplied / CapsAdopted / CapsOrphaned account the executed
	// RestartEvents: how many agents were restarted, and how their
	// journalled caps reconciled (re-adopted against a live cgroup cap
	// vs released as orphans).
	RestartsApplied int
	CapsAdopted     int
	CapsOrphaned    int
	// CorruptBatches counts garbage batches injected by CorruptRate;
	// Quarantined counts samples the aggregator-side validator refused
	// (every injected garbage sample must land here).
	CorruptBatches int64
	Quarantined    int64
}

// errAggregatorDown is what machine links report during a blackout;
// spools react by buffering. errShardDown and errReconnectBackoff are
// the per-shard analogues: the target shard is blacked out, or its
// blackout just lifted and this machine's jittered reconnect window
// has not opened yet.
var (
	errAggregatorDown   = errors.New("cluster: aggregator blackout")
	errShardDown        = errors.New("cluster: shard blackout")
	errReconnectBackoff = errors.New("cluster: reconnect backoff")
)

// chaosLink sits between a machine's per-shard spool and that shard's
// bus: it refuses batches during blackouts — global, per-shard, or a
// not-yet-elapsed reconnect backoff — so the spool buffers them, and
// silently loses a SampleLoss fraction otherwise. It is only invoked
// from the serial commit phase, so it may touch cluster-shared fault
// state and its machine's fault RNG without locks — and stays
// deterministic at any worker count.
type chaosLink struct {
	c       *Cluster
	machine int
	shard   int
}

func (l *chaosLink) Publish(samples []model.Sample) error {
	c := l.c
	if c.blackout {
		return errAggregatorDown
	}
	if c.shardDown[l.shard] {
		return errShardDown
	}
	if c.now.Before(c.reconnectUntil[l.machine*c.shards+l.shard]) {
		return errReconnectBackoff
	}
	if p := c.cfg.Faults.SampleLoss; p > 0 && c.faultRNG(l.machine).Float64() < p {
		c.fstats.LostBatches++
		return nil // eaten by the pipe: at-most-once, loss is not an error
	}
	return c.buses[l.shard].Publish(samples)
}

// delayedSpecs is one recompute round waiting out SpecPushDelay; shard
// records which bus must eventually push it.
type delayedSpecs struct {
	at    time.Time
	specs []model.Spec
	shard int
}

// sortedCrashes returns the plan's crashes ordered by (At, Machine) so
// the application order is deterministic regardless of plan order.
func (p *FaultPlan) sortedCrashes() []CrashEvent {
	out := append([]CrashEvent(nil), p.Crashes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// sortedReshards orders the plan's reshard events by (At, From, To) so
// application order is deterministic regardless of plan order.
func (p *FaultPlan) sortedReshards() []ReshardEvent {
	out := append([]ReshardEvent(nil), p.Reshards...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// sortedRestarts orders the plan's restarts by (At, Machine), like
// sortedCrashes.
func (p *FaultPlan) sortedRestarts() []RestartEvent {
	out := append([]RestartEvent(nil), p.Restarts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// garbageSample builds one hostile sample: structurally plausible
// (the NaN variants even pass a bare "negative?" check — NaN compares
// false against every bound) but numerically poisonous. The ingress
// validator must catch every variant.
func garbageSample(rng *rand.Rand, machineName string, now time.Time) model.Sample {
	s := model.Sample{
		Job:       "corrupt",
		Task:      model.TaskID{Job: "corrupt", Index: rng.Intn(100)},
		Platform:  model.PlatformA,
		Timestamp: now,
		CPUUsage:  1,
		CPI:       1,
		Machine:   machineName,
	}
	switch rng.Intn(5) {
	case 0:
		s.CPI = math.NaN()
	case 1:
		s.CPI = math.Inf(1)
	case 2:
		s.CPI = -rng.Float64()
	case 3:
		s.CPUUsage = math.NaN()
	case 4:
		s.CPUUsage = -1e6
	}
	return s
}

// applyFaultTimeline advances chaos state to now: blackout flag,
// due machine crashes, and due delayed spec pushes. Called from the
// commit phase, before queues drain.
func (c *Cluster) applyFaultTimeline(now time.Time) {
	offset := now.Sub(c.cfg.Start)

	// Reshards first: every later fault decision this tick (shard
	// blackout flags, routing, spool drains) must see the new ring.
	for c.reshardIdx < len(c.reshards) && c.reshards[c.reshardIdx].At <= offset {
		c.applyReshard(c.reshards[c.reshardIdx])
		c.reshardIdx++
	}

	was := c.blackout
	c.blackout = false
	for _, w := range c.cfg.Faults.AggregatorBlackouts {
		if w.contains(offset) {
			c.blackout = true
			break
		}
	}
	if c.blackout {
		c.fstats.BlackoutTicks++
	}
	if was != c.blackout {
		typ := "blackout_end"
		if c.blackout {
			typ = "blackout_start"
		}
		c.cfg.Events.Emit(now, typ, map[string]string{"offset": offset.String()})
	}

	// Per-shard blackout flags, with full-jitter reconnect draws on the
	// down→up transition: every machine's link to the recovered shard
	// stays closed for uniform(0, ReconnectSpread], drawn from its own
	// fault RNG stream in machine-index order — deterministic at any
	// worker count, decorrelated across machines.
	for s := 0; s < c.shards; s++ {
		down := false
		for _, sb := range c.cfg.Faults.ShardBlackouts {
			if sb.Shard == s && sb.Window.contains(offset) {
				down = true
				break
			}
		}
		if down {
			c.fstats.ShardBlackoutTicks++
		}
		if down != c.shardDown[s] {
			typ := "shard_blackout_end"
			if down {
				typ = "shard_blackout_start"
			}
			c.cfg.Events.Emit(now, typ, map[string]any{"shard": s, "offset": offset.String()})
			if !down {
				spread := c.cfg.Faults.ReconnectSpread
				if spread <= 0 {
					spread = 5 * time.Second
				}
				for i := range c.machs {
					d := pipeline.FullJitterBackoff(0, spread, spread, c.faultRNG(i).Float64())
					c.reconnectUntil[i*c.shards+s] = now.Add(d)
				}
			}
		}
		c.shardDown[s] = down
	}

	for c.crashIdx < len(c.crashes) && c.crashes[c.crashIdx].At <= offset {
		cr := c.crashes[c.crashIdx]
		c.crashIdx++
		lost, restarted, err := c.CrashMachine(cr.Machine)
		if err != nil {
			continue // unknown machine name in the plan: skip, don't wedge
		}
		c.fstats.CrashesApplied++
		c.fstats.TasksLost += lost
		c.fstats.TasksRestarted += restarted
		c.cfg.Events.Emit(now, "machine_crash", map[string]any{
			"machine": cr.Machine, "tasks_lost": lost, "tasks_restarted": restarted,
		})
	}

	for c.restartIdx < len(c.agentRestarts) && c.agentRestarts[c.restartIdx].At <= offset {
		r := c.agentRestarts[c.restartIdx]
		c.restartIdx++
		i, ok := c.midx[r.Machine]
		if !ok {
			continue // unknown machine name in the plan: skip, don't wedge
		}
		adopted, orphaned := c.restartAgent(i, now)
		c.fstats.RestartsApplied++
		c.fstats.CapsAdopted += adopted
		c.fstats.CapsOrphaned += orphaned
		c.cfg.Events.Emit(now, "agent_restart", map[string]any{
			"machine": r.Machine, "caps_adopted": adopted, "caps_orphaned": orphaned,
		})
	}

	for len(c.delayed) > 0 && !c.delayed[0].at.After(now) {
		// A reshard may have retired the shard that built the delayed
		// batch; clamp to a live bus — the watchers are the same set.
		s := c.delayed[0].shard
		if s >= len(c.buses) {
			s = len(c.buses) - 1
		}
		c.buses[s].Push(c.delayed[0].specs)
		c.fstats.DelayedSpecPushes++
		c.delayed = c.delayed[1:]
	}
}

// restartAgent replaces machine i's agent with a fresh one, as if the
// daemon process crashed and the init system brought it back: every
// piece of in-memory agent state (spec cache, sampling windows, the
// active-cap table) is gone, while the machine — tasks, cgroups, caps,
// leases — survives untouched. The replacement re-registers the
// resident tasks, refetches the current spec table (a restarted real
// daemon re-subscribes and receives a snapshot), and reconciles the
// machine's cap journal against live cgroup state, re-adopting caps
// the dead agent applied and releasing orphans. Called only from the
// serial commit phase.
func (c *Cluster) restartAgent(i int, now time.Time) (adopted, orphaned int) {
	m := c.machs[i]
	old := c.agents[i]
	for _, bus := range c.buses {
		bus.Unwatch(old)
	}

	a := c.newAgent(i)
	if c.staged != nil {
		// The old agent's active caps died with it, but their
		// contribution has already been drained into the shared gauge;
		// re-adoption below would double-count them, so cancel the stale
		// contribution first.
		c.staged[i].core.CapsActive.Add(-float64(len(old.Manager().Enforcer().ActiveCaps())))
	}
	for _, id := range m.Tasks() {
		a.RegisterTask(id, m.Task(id).Job)
	}
	for _, bus := range c.buses {
		for _, spec := range bus.Builder().Specs() {
			if a.WantSpec(spec.Key()) {
				a.DeliverSpec(spec)
			}
		}
	}
	ad, or := a.Reconcile(now, c.journals[i].Entries())
	c.agents[i] = a
	c.agent[m.Name()] = a
	for _, bus := range c.buses {
		bus.Watch(a)
	}
	return len(ad), len(or)
}

// faultRNG returns machine i's fault stream ("fault/<machine>"),
// creating it on first draw: a stream is a pure function of (cluster
// seed, name), so when it is created cannot change its sequence, and a
// run that never draws — every run without loss, corruption or shard
// blackouts — never pays for the generator state. Serial commit phase
// only.
func (c *Cluster) faultRNG(i int) *rand.Rand {
	if c.faultRNGs[i] == nil {
		c.faultRNGs[i] = c.rng.Stream("fault/" + c.machs[i].Name())
	}
	return c.faultRNGs[i]
}

// FaultStats returns the cumulative fault accounting for this run.
// Spool and quarantine accounting is live on every run, fault plan or
// not.
func (c *Cluster) FaultStats() FaultStats {
	st := c.fstats
	for _, sp := range c.spools {
		s := sp.Stats()
		st.SpoolDropped += s.Dropped
		st.SpoolReplayed += s.Replayed
		st.SpooledBatches += int64(s.Batches)
	}
	st.Quarantined = c.validator.Quarantine.Total()
	return st
}
