// Command clustersim runs a whole simulated shared compute cluster
// under CPI² end to end and reports what the system did: incidents,
// caps, victim recovery, and a forensic summary. It is the "kick the
// tires on everything at once" binary.
//
// Usage:
//
//	clustersim [-machines 50] [-duration 1h] [-seed 1] [-workers 0]
//	           [-shards 0] [-metrics-addr :7425] [-report-only] [-feedback]
//	           [-identifier correlation|panda]
//	           [-query "SELECT …"] [-chaos "blackout=20m+10m,loss=0.05"]
//
// -workers sets how many goroutines tick machines in parallel
// (0 = GOMAXPROCS). The same seed produces byte-identical output at
// any worker count, so -workers only changes wall-clock time.
// -shards partitions the spec tier over a consistent-hash ring of
// aggregator shards; like -workers it never changes the output, only
// which failure domains exist for the chaos directives below.
//
// -chaos injects a deterministic failure timeline (fed from the same
// seeded RNG streams as the rest of the simulation): comma-separated
// directives blackout=OFFSET+DURATION, loss=FRACTION,
// specdelay=DURATION, crash=MACHINE@OFFSET, spool=N, spoolbytes=N,
// shardblackout=SHARD@OFFSET+DURATION, reshard=N>M@OFFSET, and
// reconnect=DURATION (full-jitter agent reconnect spread after a
// shard comes back). Offsets count from simulation start (warm-up
// included). The run prints fault accounting (lost batches, spool
// drops/replays, crash and shard tallies) alongside the usual
// summary.
//
// Every component shares one metric registry; -metrics-addr exposes
// it live at /metrics during the run, and a one-line JSON summary of
// the run's key counters is printed on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	machines := flag.Int("machines", 50, "number of machines")
	duration := flag.Duration("duration", time.Hour, "simulated duration")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "parallel tick workers (0 = GOMAXPROCS); output is identical at any value")
	shards := flag.Int("shards", 0, "spec-tier aggregator shards, the members of the consistent-hash ring (0 = 1); output is identical at any value")
	reportOnly := flag.Bool("report-only", false, "disable automatic capping")
	feedback := flag.Bool("feedback", false, "enable §9 feedback-driven adaptive throttling")
	query := flag.String("query", "", "extra forensics query to run at the end")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address for live /metrics during the run (empty: disabled)")
	chaos := flag.String("chaos", "", "fault plan, e.g. \"blackout=20m+10m,loss=0.05,crash=machine-0003@30m\" (empty: nothing injected)")
	identifier := flag.String("identifier", "",
		fmt.Sprintf("antagonist identifier: %v (empty: %s)", core.IdentifierNames(), core.IdentifierCorrelation))
	flag.Parse()

	// Validate up front so a typo'd -identifier is a friendly flag error
	// rather than a panic out of the first machine's NewManager.
	if _, err := core.NewIdentifier(*identifier, core.DefaultParams()); err != nil {
		log.Fatalf("clustersim: -identifier: %v", err)
	}

	// An empty -chaos is the empty plan: same sample path, nothing
	// injected.
	faults, err := cluster.ParseFaultPlan(*chaos)
	if err != nil {
		log.Fatalf("clustersim: -chaos: %v", err)
	}

	reg := obs.NewRegistry()
	events := obs.NewEventLog(4096, nil)
	c := cluster.New(cluster.Config{
		Seed:              *seed,
		Machines:          *machines,
		Workers:           *workers,
		Shards:            *shards,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Params: core.Params{
			MinSamplesPerTask:  8,
			ReportOnly:         *reportOnly,
			FeedbackThrottling: *feedback,
			Identifier:         *identifier,
		},
		Registry: reg,
		Events:   events,
		Faults:   faults,
	})

	if *metricsAddr != "" {
		// The registry and event log are concurrency-safe, so they can
		// be scraped mid-run; incidents are served from the event log
		// (/debug/events?type=incident) rather than cluster state, which
		// the simulation loop mutates without locking.
		admin := obs.NewAdminServer(reg, events)
		admin.HandleTrace(c.AggregatorTrace(), nil)
		addr, err := admin.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}

	// Fleet mix: a search tree, two services, plain batch, MapReduce,
	// and heavy antagonists on a quarter of the machines.
	defs, tree := cluster.WebSearchJob("websearch", *machines, *machines/5+1, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			log.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(c.AddJob(cluster.QuietServiceJob("bigtable", *machines, 0.8)))
	must(c.AddJob(cluster.BatchJob("logproc", *machines, 0.5, model.PriorityBestEffort)))
	must(c.AddJob(cluster.MapReduceJob("mapreduce", *machines/2, 3, workload.ReactLameDuck)))

	fmt.Printf("cluster: %d machines, %d jobs; warming up specs…\n", *machines, 6)
	specs, err := cluster.WarmUpSpecs(c, 15*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d robust specs learned:\n", len(specs))
	for _, s := range specs {
		fmt.Printf("  %-42s CPI %.2f ± %.2f\n", s.Key(), s.CPIMean, s.CPIStddev)
	}

	must(c.AddJob(cluster.AntagonistJob("video-transcode", *machines/4+1, 7, model.PriorityBatch)))
	fmt.Printf("\nantagonists landed on ~1/4 of machines; running %v…\n", *duration)
	start := time.Now()
	c.Run(*duration)
	fmt.Printf("simulated %v in %.1fs wall\n\n", *duration, time.Since(start).Seconds())

	incs := c.Incidents()
	actions := map[core.ActionType]int{}
	for _, inc := range incs {
		actions[inc.Decision.Action]++
	}
	fmt.Printf("incidents: %d total — %d capped, %d report-only, %d no-action\n",
		len(incs), actions[core.ActionCap], actions[core.ActionReport], actions[core.ActionNone])
	exits, restarts := c.Stats()
	fmt.Printf("task churn: %d exits, %d restarts\n", exits, restarts)
	if *chaos != "" {
		fs := c.FaultStats()
		fmt.Printf("faults (%s): %d batches lost, %d spooled→replayed, %d spool-dropped, %d still spooled,\n"+
			"        %d blackout ticks, %d shard-blackout ticks, %d reshards (%d keys handed off),\n"+
			"        %d delayed spec pushes, %d crashes (%d tasks lost, %d restarted),\n"+
			"        %d agent restarts (%d caps re-adopted, %d orphaned), %d corrupt batches (%d samples quarantined)\n",
			faults, fs.LostBatches, fs.SpoolReplayed, fs.SpoolDropped, fs.SpooledBatches,
			fs.BlackoutTicks, fs.ShardBlackoutTicks, fs.ReshardsApplied, fs.MovedKeys,
			fs.DelayedSpecPushes, fs.CrashesApplied, fs.TasksLost, fs.TasksRestarted,
			fs.RestartsApplied, fs.CapsAdopted, fs.CapsOrphaned, fs.CorruptBatches, fs.Quarantined)
	}
	fmt.Println()

	for _, q := range []string{
		"SELECT suspect_job, count(*), avg(correlation) FROM incidents GROUP BY suspect_job ORDER BY count(*) DESC LIMIT 5",
		"SELECT victim_job, count(*), max(victim_cpi) FROM incidents GROUP BY victim_job ORDER BY count(*) DESC LIMIT 5",
	} {
		res, err := c.Store().Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(q)
		fmt.Println(res.String())
	}
	if *query != "" {
		res, err := c.Store().Query(*query)
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		fmt.Println(*query)
		fmt.Println(res.String())
	}

	// One-line machine-readable run summary from the shared registry
	// (NewMetrics is idempotent: these are the same series every agent
	// wrote to).
	mm := core.NewMetrics(reg)
	stalenessN := mm.SpecStaleness.Count()
	stalenessMean := 0.0
	if stalenessN > 0 {
		stalenessMean = mm.SpecStaleness.Sum() / float64(stalenessN)
	}
	summary := map[string]any{
		"incidents":               len(incs),
		"caps_applied":            mm.CapsApplied.Value(),
		"caps_expired":            mm.CapsExpired.Value(),
		"analyses":                mm.AnalysesRun.Value(),
		"analyses_rate_limited":   mm.AnalysesRateLimited.Value(),
		"samples_observed":        mm.SamplesObserved.Value(),
		"correlation_p50_seconds": mm.CorrelationSeconds.Quantile(0.5),
		"correlation_p99_seconds": mm.CorrelationSeconds.Quantile(0.99),
		// Control-loop reaction-time SLIs (simulated seconds).
		"sample_to_spec_p50_seconds":  mm.SampleToSpec.Quantile(0.5),
		"sample_to_spec_p99_seconds":  mm.SampleToSpec.Quantile(0.99),
		"detect_to_cap_p50_seconds":   mm.DetectToCap.Quantile(0.5),
		"detect_to_cap_p99_seconds":   mm.DetectToCap.Quantile(0.99),
		"spec_staleness_observations": stalenessN,
		"spec_staleness_mean_seconds": stalenessMean,
		"trace_spans_by_stage":        c.SpanCounts(),
	}
	if faults != nil {
		summary["fault_stats"] = c.FaultStats()
	}
	b, err := json.Marshal(summary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary: %s\n", b)
}
