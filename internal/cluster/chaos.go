package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// Window is a half-open interval of simulation time, as offsets from
// the simulation epoch: [From, To).
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
	// AggregatorBlackouts are intervals during which every shard of the
	// spec tier is unreachable — a ShardBlackoutEvent for each live
	// shard: sample batches spool on each machine, and no spec recompute
	// or push happens.
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
	// Reshards, crashes and restarts apply in offset order; at equal
	// offsets reshards go first, then crashes, then restarts.
	Restarts []RestartEvent
	// CorruptRate is the per-machine per-tick probability that a hostile
	// or buggy writer ships one batch of garbage samples (NaN/Inf/
	// negative CPI or usage) to the aggregator. The ingress validator
	// must quarantine every one of them; specs stay byte-identical to a
	// corruption-free run. 0 ≤ CorruptRate ≤ 1.
	CorruptRate float64
	// ShardBlackouts take individual aggregator shards offline (on a
	// 1-shard fleet, shard 0's window is an aggregator blackout; a shard
	// index with no live shard behind it simply never fires).
	ShardBlackouts []ShardBlackoutEvent
	// Reshards are live shard-count changes (see ReshardEvent).
	Reshards []ReshardEvent
	// ReconnectSpread bounds the full-jitter reconnect delay each
	// machine draws when a shard comes back from any outage, blackout=
	// or shardblackout=: machine i's link to the recovered shard stays
	// closed for uniform(0, ReconnectSpread] — decorrelated via the
	// per-machine fault RNG stream, so the fleet does not thunder back
	// in lockstep. Default 5s.
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
//	blackout=OFFSET+DURATION   aggregator blackout: every shard
//	                           unreachable for the window (repeatable)
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
//	reconnect=DURATION         full-jitter reconnect spread after any
//	                           outage lifts (default 5s)
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
		// Each case appends or sets what it parsed; a directive that does
		// not parse fails the whole plan below.
		var err error
		switch key {
		case "blackout":
			var w Window
			w, err = parseWindow(val)
			p.AggregatorBlackouts = append(p.AggregatorBlackouts, w)
		case "loss":
			p.SampleLoss, err = strconv.ParseFloat(val, 64)
		case "specdelay":
			p.SpecPushDelay, err = time.ParseDuration(val)
		case "crash":
			var ev CrashEvent
			ev.Machine, ev.At, err = parseAt(val)
			p.Crashes = append(p.Crashes, ev)
		case "restart":
			var ev RestartEvent
			ev.Machine, ev.At, err = parseAt(val)
			p.Restarts = append(p.Restarts, ev)
		case "corrupt":
			p.CorruptRate, err = strconv.ParseFloat(val, 64)
		case "shardblackout":
			shard, win, _ := strings.Cut(val, "@")
			n, errShard := strconv.Atoi(shard)
			w, errWin := parseWindow(win)
			p.ShardBlackouts = append(p.ShardBlackouts, ShardBlackoutEvent{Shard: n, Window: w})
			err = errors.Join(errShard, errWin)
		case "reshard":
			split, at, errAt := parseAt(val)
			fromS, toS, ok := strings.Cut(split, ">")
			if !ok {
				fromS, toS, _ = strings.Cut(split, "→")
			}
			from, errFrom := strconv.Atoi(fromS)
			to, errTo := strconv.Atoi(toS)
			p.Reshards = append(p.Reshards, ReshardEvent{At: at, From: from, To: to})
			err = errors.Join(errAt, errFrom, errTo)
		case "reconnect":
			p.ReconnectSpread, err = time.ParseDuration(val)
		case "skew":
			var ev SkewEvent
			ev.Machine, ev.Offset, err = parseAt(val)
			p.Skews = append(p.Skews, ev)
		case "spool":
			p.SpoolBatches, err = strconv.Atoi(val)
		case "spoolbytes":
			p.SpoolBytes, err = strconv.ParseInt(val, 10, 64)
		default:
			return nil, fmt.Errorf("cluster: unknown fault directive %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: %s=%s: %w", key, val, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseAt parses a NAME@OFFSET directive value; NAME is not empty.
func parseAt(val string) (string, time.Duration, error) {
	name, at, ok := strings.Cut(val, "@")
	if !ok || name == "" {
		return "", 0, errors.New("want NAME@OFFSET")
	}
	d, err := time.ParseDuration(at)
	return name, d, err
}

// parseWindow parses an OFFSET+DURATION directive value.
func parseWindow(val string) (Window, error) {
	from, dur, ok := strings.Cut(val, "+")
	if !ok {
		return Window{}, errors.New("want OFFSET+DURATION")
	}
	f, errFrom := time.ParseDuration(from)
	d, errDur := time.ParseDuration(dur)
	return Window{From: f, To: f + d}, errors.Join(errFrom, errDur)
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
	// ShardBlackoutTicks counts (tick × down shard) pairs spent inside
	// blackouts of either kind — two shards down for one tick counts 2,
	// and a blackout= tick counts once per live shard.
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

// errShardDown and errReconnectBackoff are what machine links report
// while their shard is down, or its outage just lifted and this
// machine's randomly delayed reconnect window has not opened yet;
// spools react by buffering.
var (
	errShardDown        = errors.New("cluster: shard blackout")
	errReconnectBackoff = errors.New("cluster: reconnect backoff")
)

// chaosLink sits between a machine's per-shard spool and that shard's
// bus: it refuses batches while the shard is down or a reconnect
// backoff has not elapsed, so the spool buffers them, and silently
// loses a SampleLoss fraction otherwise. It is only invoked from the
// serial commit phase, so it may touch cluster-shared fault state and
// its machine's fault RNG without locks — and stays deterministic at
// any worker count.
type chaosLink struct {
	c       *Cluster
	machine int
	shard   int
	// reconnectUntil is the link's full-jitter reconnect deadline after
	// its shard's outage lifts: until then it refuses traffic (spooling
	// it), so a fleet does not thunder back into a freshly recovered
	// shard in lockstep.
	reconnectUntil time.Time
}

func (l *chaosLink) Publish(samples []model.Sample) error {
	c := l.c
	if c.shardDown[l.shard] {
		return errShardDown
	}
	if c.now.Before(l.reconnectUntil) {
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

// The fault timeline's event kinds, in their application order at
// equal offsets: a reshard first, so every later fault decision of the
// tick (down flags, routing, spool drains) sees the new ring, then
// crashes, then restarts.
const (
	faultReshard = iota
	faultCrash
	faultRestart
)

// faultEvent is one entry of the fault timeline: a reshard (from, to)
// or a machine crash or agent restart (machine).
type faultEvent struct {
	at       time.Duration
	kind     int
	machine  string
	from, to int
}

// timeline returns the plan's reshards, crashes and restarts as one
// list ordered by (offset, kind, machine, from, to), so the application
// order is deterministic regardless of plan order.
func (p *FaultPlan) timeline() []faultEvent {
	var out []faultEvent
	for _, rs := range p.Reshards {
		out = append(out, faultEvent{at: rs.At, kind: faultReshard, from: rs.From, to: rs.To})
	}
	for _, cr := range p.Crashes {
		out = append(out, faultEvent{at: cr.At, kind: faultCrash, machine: cr.Machine})
	}
	for _, r := range p.Restarts {
		out = append(out, faultEvent{at: r.At, kind: faultRestart, machine: r.Machine})
	}
	slices.SortFunc(out, func(a, b faultEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind),
			strings.Compare(a.machine, b.machine), cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	return out
}

// shardDownAt reports whether shard s is unreachable at offset: inside
// a blackout= window, which takes every shard down, or inside a
// shardblackout= window for s.
func (p *FaultPlan) shardDownAt(s int, offset time.Duration) bool {
	for _, w := range p.AggregatorBlackouts {
		if w.contains(offset) {
			return true
		}
	}
	for _, sb := range p.ShardBlackouts {
		if sb.Shard == s && sb.Window.contains(offset) {
			return true
		}
	}
	return false
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

// applyFaultTimeline advances chaos state to now: the due reshards,
// crashes and restarts in timeline order, the per-shard down flags, and
// due delayed spec pushes. Called from the commit phase, before queues
// drain.
func (c *Cluster) applyFaultTimeline(now time.Time) {
	offset := now.Sub(epoch)
	for ; c.nextFault < len(c.timeline) && c.timeline[c.nextFault].at <= offset; c.nextFault++ {
		ev := c.timeline[c.nextFault]
		if ev.kind != faultReshard {
			// This tick's outage transitions, on the ring the reshards
			// before them left, precede crashes and restarts: a
			// restarted agent fetches specs only from shards that are up.
			c.syncShardDown(now, offset)
		}
		switch ev.kind {
		case faultReshard:
			c.applyReshard(ev.to)
		case faultCrash:
			lost, restarted, err := c.CrashMachine(ev.machine)
			if err != nil {
				continue // unknown machine name in the plan: skip, don't wedge
			}
			c.fstats.CrashesApplied++
			c.fstats.TasksLost += lost
			c.fstats.TasksRestarted += restarted
			c.cfg.Events.Emit(now, "machine_crash", map[string]any{
				"machine": ev.machine, "tasks_lost": lost, "tasks_restarted": restarted,
			})
		case faultRestart:
			i, ok := c.midx[ev.machine]
			if !ok {
				continue // unknown machine name in the plan: skip, don't wedge
			}
			adopted, orphaned := c.restartAgent(i, now)
			c.fstats.RestartsApplied++
			c.fstats.CapsAdopted += adopted
			c.fstats.CapsOrphaned += orphaned
			c.cfg.Events.Emit(now, "agent_restart", map[string]any{
				"machine": ev.machine, "caps_adopted": adopted, "caps_orphaned": orphaned,
			})
		}
	}

	c.syncShardDown(now, offset)
	for _, down := range c.shardDown {
		if down {
			c.fstats.ShardBlackoutTicks++
		}
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

// syncShardDown sets every live shard's down flag to the plan's state
// at offset and acts on each transition: an event, and on the down→up
// side a full-jitter reconnect draw — every machine's link to the
// recovered shard stays closed for uniform(0, ReconnectSpread], drawn
// from its own fault RNG stream in machine-index order, so the draws
// are deterministic at any worker count and decorrelated across
// machines. It is idempotent within a tick.
func (c *Cluster) syncShardDown(now time.Time, offset time.Duration) {
	for s := range c.shardDown {
		down := c.cfg.Faults.shardDownAt(s, offset)
		if down == c.shardDown[s] {
			continue
		}
		c.shardDown[s] = down
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
			link := slices.Index(c.ring.Members(), shardName(s))
			for i, n := range c.nodes {
				d := pipeline.FullJitterBackoff(0, spread, spread, c.faultRNG(i).Float64())
				n.egress.Links()[link].reconnectUntil = now.Add(d)
			}
		}
	}
}

// restartAgent replaces machine i's agent with a fresh one, as if the
// daemon process crashed and the init system brought it back: every
// piece of in-memory agent state (spec cache, sampling windows, the
// active-cap table) is gone, while the machine — tasks, cgroups, caps,
// leases — survives untouched. The replacement re-registers the
// resident tasks, is handed the spec table of every shard that is up
// at once — a down shard serves nothing — and reconciles the machine's
// cap journal against live cgroup state, re-adopting caps the dead
// agent applied and releasing orphans. The immediate spec table is the
// sim's shortcut: cmd/cpi2agent re-subscribes after a restart but
// receives specs only at the aggregator's next recompute. Called only
// from the serial commit phase.
func (c *Cluster) restartAgent(i int, now time.Time) (adopted, orphaned int) {
	n := c.nodes[i]
	c.pending[i] = true
	old := n.a
	for _, bus := range c.buses {
		bus.Unwatch(old)
	}

	a := c.newAgent(n)
	if n.metrics != nil {
		// The old agent's active caps died with it, but their
		// contribution has already been drained into the shared gauge;
		// re-adoption below would double-count them, so cancel the stale
		// contribution first.
		n.metrics.CapsActive.Add(-float64(len(old.Manager().ActiveCaps())))
	}
	for _, id := range n.m.Tasks() {
		a.RegisterTask(id, c.jobs[id.Job].Job)
	}
	for s, bus := range c.buses {
		if c.shardDown[s] {
			continue // an unreachable shard serves no specs
		}
		for _, spec := range bus.Builder().Specs() {
			if a.WantSpec(spec.Key()) {
				a.DeliverSpec(spec)
			}
		}
	}
	ad, or := a.Reconcile(now, n.journal.Entries())
	n.a = a
	for _, bus := range c.buses {
		bus.Watch(a)
	}
	return len(ad), len(or)
}

// faultRNG returns machine i's fault stream ("fault/<machine>"),
// creating it on first draw: a stream is a pure function of (cluster
// seed, name), so when it is created cannot change its sequence, and a
// run that never draws — every run without loss, corruption or
// blackouts — never pays for the generator state. Serial commit phase
// only.
func (c *Cluster) faultRNG(i int) *rand.Rand {
	n := c.nodes[i]
	if n.fault == nil {
		n.fault = c.rng.Stream("fault/" + n.m.Name())
	}
	return n.fault
}

// FaultStats returns the cumulative fault accounting for this run.
// Spool and quarantine accounting is live on every run, fault plan or
// not.
func (c *Cluster) FaultStats() FaultStats {
	st := c.fstats
	for _, n := range c.nodes {
		s := n.egress.Stats()
		st.SpoolDropped += s.Dropped
		st.SpoolReplayed += s.Replayed
		st.SpooledBatches += int64(s.Batches)
	}
	st.Quarantined = c.validator.Quarantine.Total()
	return st
}
