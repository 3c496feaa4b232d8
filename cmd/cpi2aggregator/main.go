// Command cpi2aggregator is the per-cluster CPI aggregation service of
// Figure 6: it accepts CPI samples from cpi2agent daemons over TCP,
// builds per job×platform CPI specs (with age-weighting and the
// robustness gates of §3.1), and pushes updated specs back to
// subscribed agents on every recompute.
//
// Usage:
//
//	cpi2aggregator [-listen :7421] [-metrics-addr :7424] [-recompute 1h]
//	               [-min-tasks 5] [-min-samples 100] [-checkpoint state.json]
//	               [-shard-id shard-0] [-ring shard-0,shard-1,shard-2]
//
// The paper recomputed specs every 24h with a goal of hourly; the
// default here is hourly. The admin HTTP server on -metrics-addr
// serves /metrics, /healthz, /buildinfo, /debug/specs (the current
// spec table), /debug/events (structured events, including wire_error
// drops — an agent that does not speak wire protocol v4 is refused
// with reason "decode"), /debug/ring (shard identity, ring membership,
// per-member key counts, checkpoint age, last push/recompute
// timestamps), and /debug/trace (aggregator-side causal spans: ingest,
// spec_build, spec_push; ?id=<trace> for one chain, ?n=<count> for the
// most recent spans).
//
// Every instance is one member of a consistent-hash ring over
// job×platform keys, named by -shard-id (default shard-0) on the ring
// of -ring's names (default: the ring of -shard-id alone). It refuses
// (counts as misrouted) samples for keys it does not own, so agents
// with a stale ring cannot make two shards both aggregate a key.
// Agents pass the same ring via their -aggregator list and route each
// batch to the owning shard. A flagless aggregator is the ring of one,
// shard-0, which owns every key — what a bare -aggregator host:port
// agent expects. The shard (spec builder, bus, ownership filter) is
// built by pipeline.NewShardBus, as the cluster simulator's shards
// are, and the TCP Server sits on the bus it returns.
//
// -checkpoint makes the aggregator durable across restarts: the full
// builder state (age-weighted spec history, pending samples, current
// specs) is snapshotted atomically to the given path after every
// recompute and on shutdown (once the server has closed every
// connection), and restored on start if the file exists.
// A restarted aggregator therefore computes the same specs it would
// have without the crash, instead of relearning from scratch.
package main

import (
	"errors"
	"flag"
	"io/fs"
	"log"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/pipeline"
)

func main() {
	listen := flag.String("listen", ":7421", "address to accept agent connections on")
	metricsAddr := flag.String("metrics-addr", ":7424", "admin HTTP address for /metrics and /debug (empty: disabled)")
	recompute := flag.Duration("recompute", time.Hour, "spec recomputation interval")
	minTasks := flag.Int("min-tasks", 5, "fewest tasks a job needs for CPI management")
	minSamples := flag.Int64("min-samples", 100, "fewest samples per task a spec needs")
	ageWeight := flag.Float64("age-weight", 0.9, "per-interval decay of historical spec data")
	checkpoint := flag.String("checkpoint", "", "snapshot builder state to this file after every recompute and restore it on start (empty: stateless)")
	shardID := flag.String("shard-id", "shard-0", "this instance's shard name on the ring")
	ringFlag := flag.String("ring", "", "comma-separated shard names forming the consistent-hash ring (empty: the ring of -shard-id alone)")
	flag.Parse()

	members := []string{*shardID}
	if *ringFlag != "" {
		members = strings.Split(*ringFlag, ",")
	}
	ring := pipeline.NewRing(members, 0)
	params := core.Params{
		SpecRecomputeInterval: *recompute,
		MinTasks:              *minTasks,
		MinSamplesPerTask:     *minSamples,
		AgeWeight:             *ageWeight,
	}
	reg := obs.NewRegistry()
	// Ingress defense in depth: agents validate at egress, but a hostile
	// or buggy agent can still ship garbage — quarantine it here before
	// it poisons spec statistics. Now stays nil: agents run simulated
	// clocks at -speed× wall time, so wall-clock timestamp bounds would
	// misfire; structural and numeric checks still apply.
	validator := core.NewSampleValidator("aggregator", 256)
	validator.Metrics = core.NewMetrics(reg)
	tr := trace.NewStore(0)
	tr.SetHorizon(params.LookBack())
	bus, err := pipeline.NewShardBus(params, *shardID, ring, reg, tr, validator)
	if err != nil {
		log.Fatalf("cpi2aggregator: -shard-id %v", err)
	}
	builder := bus.Builder()
	if *checkpoint != "" {
		cp, err := core.LoadCheckpoint(*checkpoint)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			log.Printf("cpi2aggregator: no checkpoint at %s yet, starting fresh", *checkpoint)
		case err != nil:
			log.Fatalf("cpi2aggregator: load checkpoint: %v", err)
		default:
			if err := builder.ImportCheckpoint(cp); err != nil {
				log.Fatalf("cpi2aggregator: restore checkpoint: %v", err)
			}
			log.Printf("cpi2aggregator: restored %s (%d specs, %d history rows, saved %s)",
				*checkpoint, len(cp.Specs), len(cp.History), cp.SavedAt.Format(time.RFC3339))
		}
	}
	// shardState tracks the timestamps /debug/ring reports; the ticker
	// goroutine writes, admin handlers read.
	var stateMu sync.Mutex
	var lastSave, lastPush time.Time
	save := func(now time.Time) {
		if *checkpoint == "" {
			return
		}
		if err := core.SaveCheckpoint(*checkpoint, builder.Checkpoint(now)); err != nil {
			log.Printf("cpi2aggregator: save checkpoint: %v", err)
			return
		}
		stateMu.Lock()
		lastSave = now
		stateMu.Unlock()
	}
	// Abnormal connection drops (oversized/garbage frames, mid-read
	// failures) land here as wire_error events, next to the
	// cpi2_wire_errors_total counter.
	events := obs.NewEventLog(4096, nil)
	srv := pipeline.NewServer(bus)
	srv.SetEvents(events)
	addr, err := srv.Serve(*listen)
	if err != nil {
		log.Fatalf("cpi2aggregator: %v", err)
	}
	log.Printf("cpi2aggregator: listening on %s, recomputing every %v", addr, *recompute)

	if *metricsAddr != "" {
		admin := obs.NewAdminServer(reg, events)
		admin.HandleJSON("/debug/specs", func(q url.Values) (any, error) {
			return builder.Specs(), nil
		})
		admin.HandleJSON("/debug/quarantine", func(q url.Values) (any, error) {
			return map[string]any{
				"total":  validator.Quarantine.Total(),
				"recent": validator.Quarantine.Recent(obs.IntParam(q, "n", 50)),
			}, nil
		})
		admin.HandleJSON("/debug/ring", func(q url.Values) (any, error) {
			stateMu.Lock()
			save, push := lastSave, lastPush
			stateMu.Unlock()
			keys := builder.Keys()
			// Hash this instance's own keys over the ring: at steady
			// state every key lands on this shard; during a reshard
			// rollout the off-shard buckets show what must move.
			counts := make(map[string]int, ring.Size())
			for _, k := range keys {
				counts[ring.Owner(k)]++
			}
			out := map[string]any{
				"shard":          *shardID,
				"members":        ring.Members(),
				"key_count":      len(keys),
				"keys_by_member": counts,
				"last_recompute": builder.LastRecompute(),
				"last_push":      push,
			}
			if *checkpoint != "" {
				out["checkpoint"] = *checkpoint
				if !save.IsZero() {
					out["checkpoint_age_seconds"] = time.Since(save).Seconds()
				}
			}
			return out, nil
		})
		admin.HandleTrace(tr, nil)
		adminAddr, err := admin.Serve(*metricsAddr)
		if err != nil {
			log.Fatalf("cpi2aggregator: admin server: %v", err)
		}
		defer admin.Close()
		log.Printf("cpi2aggregator: metrics on http://%s/metrics", adminAddr)
	}

	ticker := time.NewTicker(*recompute)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case now := <-ticker.C:
			specs := bus.Recompute(now)
			if len(specs) > 0 {
				stateMu.Lock()
				lastPush = now
				stateMu.Unlock()
			}
			save(now)
			received, dropped := bus.Stats()
			log.Printf("recompute: %d robust specs pushed (%d samples received, %d dropped)",
				len(specs), received, dropped)
			for _, s := range specs {
				log.Printf("  %-30s CPI %.3f ± %.3f (%d tasks, %d samples)",
					s.Key(), s.CPIMean, s.CPIStddev, s.NumTasks, s.NumSamples)
			}
		case <-sig:
			log.Print("cpi2aggregator: shutting down")
			// Close first: it waits for every connection's read loop, so
			// the checkpoint holds every batch they folded.
			if err := srv.Close(); err != nil {
				log.Printf("close: %v", err)
			}
			save(time.Now().UTC())
			return
		}
	}
}
