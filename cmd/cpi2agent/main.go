// Command cpi2agent is the per-machine CPI² daemon in its deployable
// shape: it runs the sampling → detection → correlation → enforcement
// loop against a machine, ships CPI samples to a cpi2aggregator over
// TCP, receives spec pushes for the jobs it runs, and exposes the §5
// operator interface on its admin HTTP server (drive it with cpi2ctl).
// Samples leave through pipeline.NewEgress, the constructor the
// cluster simulator's machines use too: a Router over the shard ring,
// then per shard a Spooler over a Redialer, the agent end of the TCP
// wire, which dials, says hello, replays subscriptions, reads spec
// pushes and re-dials.
//
// Real hardware counters are unavailable here, so the machine is the
// repository's simulator, populated with a configurable tenant mix:
// a latency-sensitive service plus (optionally, after a delay) a
// cache-hammering batch antagonist — a live, watchable rendition of
// the paper's Case 1/2 timeline. Simulated time runs at -speed× wall
// time.
//
// Usage:
//
//	cpi2agent [-aggregator host:7421] [-metrics-addr 127.0.0.1:7423]
//	          [-incident-log incidents.jsonl] [-name machine-01]
//	          [-cpus 16] [-tenants 20] [-antagonist-after 2m] [-speed 60]
//	          [-spool-batches 4096] [-spool-bytes 67108864]
//	          [-identifier correlation|panda]
//
// -aggregator takes a comma-separated list of shard-name=address pairs
// naming every shard of the spec tier:
//
//	cpi2agent -aggregator shard-0=host1:7421,shard-1=host2:7421
//
// The shard names form the same consistent-hash ring the aggregators
// were started with (-shard-id/-ring), so each sample batch is
// partitioned to the shard owning its job×platform key, and each shard
// gets its own redialer and spool — a dead shard costs spec staleness
// for its keys only, while publishing to the others continues. A bare
// address is shard-0=address: the ring of one a flagless
// cpi2aggregator runs.
//
// The agent subscribes each aggregator connection to job×platform for
// every job it has a task of — frontend and tenant from the start, the
// antagonist's job when it lands — so an aggregator pushes it those specs
// and no others, however many jobs the fleet runs. Subscriptions are
// replayed after a reconnect; specs arrive with the aggregator's next
// recompute.
//
// Samples published while an aggregator is unreachable spool in a
// bounded in-memory buffer (-spool-batches/-spool-bytes per shard,
// drop-oldest) and replay in order when the redialer reconnects, so an
// aggregator outage costs nothing but spec staleness. An aggregator
// that does not speak wire protocol v4 is refused: the connection drops
// with a wire_error event (reason "decode") naming the version.
//
// The admin HTTP server on -metrics-addr is the daemon's one listener
// for people: /metrics (Prometheus text format; cpi2_agent_tick_seconds,
// the wall time of each agent tick, is registered by this daemon and
// no other process), /healthz, /buildinfo
// and /debug/events, plus the operator surface of agent.RegisterAdmin —
// /debug/status, /debug/tasks, /debug/caps, /debug/incidents (the
// incident events of the same in-memory log /debug/events serves),
// /debug/specs, /debug/quarantine, /debug/trace (?id=<trace-id|job/index>
// for one causal chain, ?n=<count> for the most recent spans) and the
// POST verbs /cap, /uncap and /release-all. The verbs are
// unauthenticated, so the default address is loopback only.
// -incident-log appends every structured event as one JSON line: the
// durable stream, where the in-memory log keeps the newest 4096 events.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// defaultAdminAddr is -metrics-addr's default: loopback only, the
// address cpi2ctl -addr dials by default.
const defaultAdminAddr = "127.0.0.1:7423"

// endpoint is one -aggregator entry: a shard name on the ring and its
// dial address.
type endpoint struct {
	name, addr string
}

// parseAggregators parses the -aggregator flag: either one bare
// address, which is shard-0's, or a comma-separated list of
// shard-name=address pairs in which every entry is named and names are
// unique (they are the ring members, so they must match the
// aggregators' -shard-id flags).
func parseAggregators(s string) ([]endpoint, error) {
	parts := strings.Split(s, ",")
	if len(parts) == 1 && !strings.Contains(parts[0], "=") {
		return []endpoint{{name: "shard-0", addr: strings.TrimSpace(parts[0])}}, nil
	}
	seen := make(map[string]bool, len(parts))
	eps := make([]endpoint, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		name, addr, ok := strings.Cut(p, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("entry %q: want shard-name=address", p)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate shard name %q", name)
		}
		seen[name] = true
		eps = append(eps, endpoint{name: name, addr: addr})
	}
	return eps, nil
}

func main() {
	aggregator := flag.String("aggregator", "",
		"comma-separated shard-name=address pairs naming the spec tier's shards; a bare address is shard-0's (empty: local detection only)")
	metricsAddr := flag.String("metrics-addr", defaultAdminAddr, "admin HTTP address for /metrics, /debug and the operator verbs (empty: disabled)")
	incidentLog := flag.String("incident-log", "", "append structured events as JSON lines to this file (empty: in-memory only)")
	name := flag.String("name", "machine-01", "machine name")
	cpus := flag.Int("cpus", 16, "machine CPU count")
	tenants := flag.Int("tenants", 20, "number of quiet co-tenant tasks")
	antagonistAfter := flag.Duration("antagonist-after", 2*time.Minute,
		"simulated delay before the batch antagonist lands (0: never)")
	speed := flag.Int("speed", 60, "simulated seconds per wall second")
	seed := flag.Int64("seed", 1, "simulation seed")
	reportOnly := flag.Bool("report-only", false, "detect and report, never cap automatically")
	identifier := flag.String("identifier", "",
		fmt.Sprintf("antagonist identifier: %v (empty: %s)", core.IdentifierNames(), core.IdentifierCorrelation))
	capJournal := flag.String("cap-journal", "",
		"append-only cap journal file, replayed at startup to reconcile caps (empty: disabled)")
	spoolBatches := flag.Int("spool-batches", 0, "sample batches to buffer while the aggregator is unreachable (0: default 4096)")
	spoolBytes := flag.Int64("spool-bytes", 0, "approximate byte budget for the sample spool (0: default 64MiB)")
	flag.Parse()
	if *speed < 1 {
		*speed = 1
	}

	rng := stats.NewRNG(*seed)
	hw := interference.DefaultMachine(model.PlatformA)
	m := machine.New(*name, hw, *cpus, rng.Stream("noise"))

	reg := obs.NewRegistry()
	var eventOut *os.File
	if *incidentLog != "" {
		f, err := os.OpenFile(*incidentLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("cpi2agent: incident log: %v", err)
		}
		eventOut = f
		defer f.Close()
	}
	var events *obs.EventLog
	if eventOut != nil {
		events = obs.NewEventLog(4096, eventOut)
	} else {
		events = obs.NewEventLog(4096, nil)
	}

	var sink pipeline.SampleSink
	params := core.Params{ReportOnly: *reportOnly, MinSamplesPerTask: 5, Identifier: *identifier}
	// Validate before the agent is assembled so a typo'd -identifier is
	// a friendly flag error rather than a panic out of NewManager.
	if _, err := core.NewIdentifier(*identifier, params); err != nil {
		log.Fatalf("cpi2agent: -identifier: %v", err)
	}
	var a *agent.Agent
	// One span store for the whole daemon: sample/detect spans from the
	// agent, spec_recv from pushes, spool from replays. It keeps
	// per-sample spans as far back as the manager's series reach; the
	// trace's decision rows come from the event log's incidents.
	tr := trace.NewStore(0)
	tr.SetHorizon(params.LookBack())
	var egress *pipeline.Egress[*pipeline.Redialer]
	if *aggregator != "" {
		endpoints, err := parseAggregators(*aggregator)
		if err != nil {
			log.Fatalf("cpi2agent: -aggregator: %v", err)
		}
		members := make([]string, len(endpoints))
		addrs := make(map[string]string, len(endpoints))
		for i, ep := range endpoints {
			members[i], addrs[ep.name] = ep.name, ep.addr
		}
		ring := pipeline.NewRing(members, 0)
		pm := pipeline.NewMetrics(reg)
		// Each batch is hashed over the ring of shard names (the same ring
		// the aggregators run), so every sample reaches exactly the shard
		// owning its job×platform key, through that shard's spool and
		// redialer. The redialer survives restarts (re-dials with backoff,
		// replays the subscriptions that register makes below, kicks the
		// spool on connect); the spool buffers batches (bounded,
		// drop-oldest) while its shard is down. A dead shard spools its
		// own keys only; the rest keep flowing.
		egress, err = pipeline.NewEgress(ring, pipeline.SpoolConfig{MaxBatches: *spoolBatches, MaxBytes: *spoolBytes},
			pm, tr, func(member string, kick func()) *pipeline.Redialer {
				rd := pipeline.NewRedialer(addrs[member], func(s model.Spec) {
					a.DeliverSpec(s)
					log.Printf("spec push: %s CPI %.3f ± %.3f", s.Key(), s.CPIMean, s.CPIStddev)
				})
				rd.SetMetrics(pm)
				rd.SetEvents(events)
				rd.SetOnConnect(kick)
				return rd
			})
		if err != nil {
			log.Fatalf("cpi2agent: -aggregator: %v", err)
		}
		egress.Start()
		defer egress.Close()
		sink = egress
		log.Printf("cpi2agent: spec tier: ring of %d (%s)", ring.Size(), strings.Join(ring.Members(), ", "))
	}
	a = agent.New(m, params, sink)
	a.Instrument(reg, events)
	a.SetTrace(tr)
	// The agent's own cost (§3.1's sampling budget, §4.2's analysis that
	// must never become the antagonist) is timed here, around each tick:
	// this process ticks one agent in wall time, so the number is the
	// daemon's real footprint.
	tickSeconds := reg.Histogram("cpi2_agent_tick_seconds",
		"wall-clock duration of one agent tick: sampling, detection, analysis and enforcement", obs.LatencyBuckets)
	// register tells the agent about a placed task and subscribes every
	// aggregator connection to the task's job on this machine's platform
	// (Fig. 6: specs go to the machines running the job). A redialer
	// drops a key it already holds, so this is one frame per job.
	register := func(id model.TaskID, job model.Job) {
		a.RegisterTask(id, job)
		if egress == nil {
			return
		}
		for _, rd := range egress.Links() {
			if err := rd.Subscribe(model.SpecKey{Job: id.Job, Platform: hw.Platform}); err != nil {
				log.Printf("cpi2agent: subscribe %s: %v", id.Job, err)
			}
		}
	}

	// Crash-safe actuation: journal every cap/uncap; recover and
	// reconcile the journal from a previous run. This process's machine
	// is freshly simulated, so pre-restart caps have no surviving
	// cgroups and reconcile as orphans — exactly what a real agent does
	// with caps whose tasks vanished while it was down.
	var recovered []core.CapJournalEntry
	if *capJournal != "" {
		j, rec, torn, err := agent.OpenCapJournal(*capJournal)
		if err != nil {
			log.Fatalf("cpi2agent: cap journal: %v", err)
		}
		defer j.Close()
		a.Manager().SetJournal(j)
		recovered = rec
		if torn > 0 {
			log.Printf("cpi2agent: cap journal: dropped %d torn line(s)", torn)
		}
	}

	// Populate the machine: one protected service + quiet tenants.
	svcJob := model.Job{Name: "frontend", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	svcProfile := &interference.Profile{
		DefaultCPI: 1.0, CacheFootprint: 1.2, MemBandwidth: 0.6,
		Sensitivity: 1.2, BaseL3MPKI: 2, NoiseSigma: 0.06,
	}
	// Six frontend tasks (the victim is index 0) so a connected
	// aggregator can learn a robust spec (≥5 tasks) from this machine
	// alone; the bootstrap spec below covers the fleet-less case.
	for i := 0; i < 6; i++ {
		id := model.TaskID{Job: "frontend", Index: i}
		cpu := 1.2
		threads := 16
		if i > 0 {
			cpu, threads = 0.6, 8
		}
		if err := m.AddTask(id, svcProfile, &workload.Steady{CPU: cpu, Threads: threads}); err != nil {
			log.Fatal(err)
		}
		register(id, svcJob)
	}
	// Bootstrap spec so local detection works before the aggregator
	// has learned anything.
	a.DeliverSpec(model.Spec{
		Job: "frontend", Platform: hw.Platform,
		NumSamples: 100000, NumTasks: 100, CPIMean: 1.0, CPIStddev: 0.1,
	})
	tenantJob := model.Job{Name: "tenant", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction}
	tenantProfile := &interference.Profile{
		DefaultCPI: 1.1, CacheFootprint: 0.2, MemBandwidth: 0.1,
		Sensitivity: 0.3, BaseL3MPKI: 1, NoiseSigma: 0.08,
	}
	trng := rng.Stream("tenants")
	for i := 0; i < *tenants; i++ {
		id := model.TaskID{Job: "tenant", Index: i}
		w := &workload.Steady{CPU: 0.1 + 0.3*trng.Float64(), Threads: 2 + trng.Intn(6)}
		if err := m.AddTask(id, tenantProfile, w); err != nil {
			log.Fatal(err)
		}
		register(id, tenantJob)
	}

	log.Printf("cpi2agent: %s (%d CPUs, %d tasks) at %dx wall speed", *name, *cpus, m.NumTasks(), *speed)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	wall := time.NewTicker(time.Second / time.Duration(*speed))
	defer wall.Stop()

	now := time.Now().UTC().Truncate(time.Second)
	start := now
	if *capJournal != "" {
		adopted, orphaned := a.Reconcile(now, recovered)
		if len(adopted)+len(orphaned) > 0 {
			log.Printf("cpi2agent: cap journal reconciled: %d adopted, %d orphaned", len(adopted), len(orphaned))
		}
	}
	// state serializes the tick loop against the operator surface, which
	// starts only once the machine is populated and reconciled.
	var state sync.Mutex
	if *metricsAddr != "" {
		admin := obs.NewAdminServer(reg, events)
		agent.RegisterAdmin(admin, a, &state)
		addr, err := admin.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("cpi2agent: admin server: %v", err)
		}
		defer admin.Close()
		log.Printf("cpi2agent: metrics on http://%s/metrics", addr)
	}

	antagonistPlaced := *antagonistAfter <= 0
	antagID := model.TaskID{Job: "video-processing", Index: 0}
	for {
		select {
		case <-sig:
			log.Print("cpi2agent: shutting down")
			return
		case <-wall.C:
		}
		state.Lock()
		now = now.Add(time.Second)
		if !antagonistPlaced && now.Sub(start) >= *antagonistAfter {
			antagonistPlaced = true
			antagJob := model.Job{Name: "video-processing", Class: model.ClassBatch, Priority: model.PriorityBatch}
			prof := &interference.Profile{
				DefaultCPI: 1.5, CacheFootprint: 8, MemBandwidth: 6,
				Sensitivity: 0.1, BaseL3MPKI: 14, NoiseSigma: 0.05,
			}
			if err := m.AddTask(antagID, prof, &workload.Steady{CPU: 6, Threads: 16}); err == nil {
				register(antagID, antagJob)
				log.Printf("sim: antagonist %v landed", antagID)
			}
		}
		_, exited := m.Tick(now, time.Second)
		for _, id := range exited {
			a.TaskExited(id) // releases its cap before the next sampling round
		}
		tickStart := time.Now()
		incidents := a.Tick(now)
		tickSeconds.Observe(time.Since(tickStart).Seconds())
		state.Unlock()
		// Caller-paced replay on the simulated clock, alongside the
		// Start loops' backoff-paced drains: only this path can stamp
		// spool spans with the spool-induced delay, because only the
		// tick loop knows simulated time (sample timestamps are
		// simulated too, so mixing in wall time would be nonsense).
		if egress != nil {
			egress.DrainAt(now)
		}
		for _, inc := range incidents {
			log.Print(incidentLine(inc))
		}
	}
}

// incidentLine is an incident as the daemon logs it. Like
// Incident.Record, it names a target only when the action has one.
func incidentLine(inc core.Incident) string {
	line := fmt.Sprintf("incident: victim=%v cpi=%.2f threshold=%.2f action=%s",
		inc.Victim, inc.VictimCPI, inc.Threshold, inc.Decision.Action)
	if inc.Decision.Action != core.ActionNone {
		line += fmt.Sprintf(" target=%v", inc.Decision.Target)
	}
	if len(inc.Suspects) > 0 {
		line += fmt.Sprintf(" top-suspect=%v corr=%.2f", inc.Suspects[0].Task, inc.Suspects[0].Correlation)
	}
	return line
}
