// Command clustersim runs a whole simulated shared compute cluster
// under CPI² end to end and reports what the system did: incidents,
// caps, victim recovery, and a forensic summary. It is the "kick the
// tires on everything at once" binary.
//
// Usage:
//
//	clustersim [-scenario FILE] [-duration 1h] [-workers 0]
//	           [-metrics-addr :7425] [-feedback]
//	           [-identifier correlation|panda] [-query "SELECT …"]
//
// -scenario is a cluster.Scenario JSON file: a checks case.json without
// name, description, duration and budgets. The default, built in, is
// scenarios/default.json: a search tree, two services, plain batch and
// MapReduce on 50 machines, with heavy antagonists landing on a quarter
// of them after a 15-minute warm-up. -duration runs after the warm-up.
// The same scenario gives byte-identical output at any -workers (0 =
// GOMAXPROCS) and any fleet.shards. A scenario's chaos (a
// cluster.ParseFaultPlan directive list; offsets count from simulation
// start) adds fault accounting to the report.
//
// Every component shares one metric registry; -metrics-addr exposes
// it live at /metrics during the run, and a one-line JSON summary of
// the run's key counters is printed on exit.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

//go:embed scenarios/default.json
var defaultScenario []byte

func main() {
	scenarioFile := flag.String("scenario", "", "cluster.Scenario JSON file (empty: the built-in scenarios/default.json)")
	duration := flag.Duration("duration", time.Hour, "simulated duration after the warm-up")
	workers := flag.Int("workers", 0, "parallel tick workers (0 = GOMAXPROCS); output is identical at any value")
	feedback := flag.Bool("feedback", false, "enable §9 feedback-driven adaptive throttling")
	query := flag.String("query", "", "extra forensics query to run at the end")
	metricsAddr := flag.String("metrics-addr", "", "admin HTTP address for live /metrics during the run (empty: disabled)")
	identifier := flag.String("identifier", "",
		fmt.Sprintf("antagonist identifier: %v (empty: %s)", core.IdentifierNames(), core.IdentifierCorrelation))
	flag.Parse()

	// Validate up front so a typo'd -identifier is a friendly flag error
	// rather than a panic out of the first machine's NewManager.
	if _, err := core.NewIdentifier(*identifier, core.DefaultParams()); err != nil {
		log.Fatalf("clustersim: -identifier: %v", err)
	}

	src := defaultScenario
	if *scenarioFile != "" {
		var err error
		if src, err = os.ReadFile(*scenarioFile); err != nil {
			log.Fatalf("clustersim: -scenario: %v", err)
		}
	}
	var sc cluster.Scenario
	if err := cluster.DecodeStrict(src, &sc); err != nil {
		log.Fatalf("clustersim: -scenario: %v", err)
	}

	reg := obs.NewRegistry()
	events := obs.NewEventLog(4096, nil)
	var admin *obs.AdminServer
	if *metricsAddr != "" {
		// The registry and event log are concurrency-safe, so they can
		// be scraped mid-run, warm-up included; incidents are served from
		// the event log (/debug/events?type=incident) rather than cluster
		// state, which the simulation loop mutates without locking.
		admin = obs.NewAdminServer(reg, events)
		addr, err := admin.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	c, warm, err := sc.Start(cluster.Config{
		Workers: *workers,
		Params: core.Params{
			FeedbackThrottling: *feedback,
			Identifier:         *identifier,
		},
		Registry: reg,
		Events:   events,
	})
	if err != nil {
		log.Fatalf("clustersim: %v", err)
	}
	if admin != nil {
		admin.HandleTrace(c.AggregatorTrace(), nil) // from the end of the warm-up
	}

	jobs := 0 // placed before the warm-up; a websearch entry is three
	for _, w := range sc.Workload {
		if !w.Lands() {
			jobs++
			if w.Kind == "websearch" {
				jobs += 2
			}
		}
	}
	fmt.Printf("cluster: %d machines, %d jobs; warming up specs…\n", sc.Fleet.Machines, jobs)
	fmt.Printf("%d robust specs learned:\n", len(warm.Specs))
	for _, s := range warm.Specs {
		fmt.Printf("  %-42s CPI %.2f ± %.2f\n", s.Key(), s.CPIMean, s.CPIStddev)
	}
	fmt.Printf("\n%s; running %v…\n", landed(sc.Workload), *duration)
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
	if sc.Chaos != "" {
		plan, _ := cluster.ParseFaultPlan(sc.Chaos) // Start parsed it
		fs := c.FaultStats()
		fmt.Printf("faults (%s): %d batches lost, %d spooled→replayed, %d spool-dropped, %d still spooled,\n"+
			"        %d shard-blackout ticks, %d reshards (%d keys handed off),\n"+
			"        %d delayed spec pushes, %d crashes (%d tasks lost, %d restarted),\n"+
			"        %d agent restarts (%d caps re-adopted, %d orphaned), %d corrupt batches (%d samples quarantined)\n",
			plan, fs.LostBatches, fs.SpoolReplayed, fs.SpoolDropped, fs.SpooledBatches,
			fs.ShardBlackoutTicks, fs.ReshardsApplied, fs.MovedKeys,
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
		"incidents":             len(incs),
		"caps_applied":          mm.CapsApplied.Value(),
		"caps_expired":          mm.CapsExpired.Value(),
		"analyses":              mm.AnalysesRun.Value(),
		"analyses_rate_limited": mm.AnalysesRateLimited.Value(),
		"samples_observed":      mm.SamplesObserved.Value(),
		// Control-loop reaction-time SLIs (simulated seconds).
		"sample_to_spec_p50_seconds":  mm.SampleToSpec.Quantile(0.5),
		"sample_to_spec_p99_seconds":  mm.SampleToSpec.Quantile(0.99),
		"detect_to_cap_p50_seconds":   mm.DetectToCap.Quantile(0.5),
		"detect_to_cap_p99_seconds":   mm.DetectToCap.Quantile(0.99),
		"spec_staleness_observations": stalenessN,
		"spec_staleness_mean_seconds": stalenessMean,
		"trace_spans_by_stage":        c.SpanCounts(),
	}
	summary["fault_stats"] = c.FaultStats()
	b, err := json.Marshal(summary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary: %s\n", b)
}

// landed says what the scenario's after-warm-up entries put on the
// fleet: each job's name and task count.
func landed(workload []cluster.WorkloadEntry) string {
	var jobs []string
	job := func(name string, tasks int) {
		unit := "tasks"
		if tasks == 1 {
			unit = "task"
		}
		jobs = append(jobs, fmt.Sprintf("%s (%d %s)", name, tasks, unit))
	}
	for _, w := range workload {
		switch {
		case !w.Lands():
		case w.Kind == "websearch":
			job(w.Name+"-leaf", w.Leaves)
			job(w.Name+"-mixer", w.Mixers)
			job(w.Name+"-root", w.Roots)
		default:
			job(w.Name, w.Tasks)
		}
	}
	if len(jobs) == 0 {
		return "nothing lands after the warm-up"
	}
	return "landed after the warm-up: " + strings.Join(jobs, ", ")
}
