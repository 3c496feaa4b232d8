package cluster

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fingerprint serializes everything the determinism contract promises
// is worker-count-independent: incidents (every field, including float
// correlations and cap quotas), the full spec table, churn counters,
// pipeline counters, and the §9 automation counters. Byte-comparing
// two fingerprints therefore checks float-exact equality, not "close
// enough".
type fingerprint struct {
	Incidents  []core.Incident
	Events     []obs.Event
	Specs      []model.Spec
	Exits      int64
	Restarts   int64
	Received   int64
	Dropped    int64
	AvoidPairs int
	Migrations int64
	// Shared registry series fed by the per-machine local metric sets.
	// The commit phase drains them in machine-index order, so these float
	// sums must be bit-identical at any worker count. (Wall-clock
	// histograms are deliberately absent: timing is nondeterministic by
	// nature.)
	MetricSamples   float64
	MetricAnomalies float64
	MetricAnalyses  float64
	MetricCaps      float64
	MetricTasks     float64
	// Causal-tracing surface: per-stage span counts summed across every
	// store, and the count+sum of the reaction-time SLI histograms. All
	// of it is simulation-time data — trace IDs are content hashes and
	// the SLIs observe sim-clock durations — so it must be bit-identical
	// at any worker count, with tracing always on. (Wall-clock histograms
	// stay deliberately absent, as above.)
	SpansByStage     map[string]uint64
	SampleToSpecN    uint64
	SampleToSpecSum  float64
	DetectToCapN     uint64
	DetectToCapSum   float64
	SpecStalenessN   uint64
	SpecStalenessSum float64
	// The whole /metrics page, as an operator would scrape it, minus the
	// two wall-clock histograms: every family and series that exists,
	// every bucket, every float sum, in render order.
	MetricsText string
}

// simTimeMetrics renders reg without the families that measure the
// host's clock rather than the simulation's.
func simTimeMetrics(reg *obs.Registry) string {
	var keep []string
	for _, line := range strings.SplitAfter(reg.Render(), "\n") {
		if !strings.Contains(line, "cpi2_agent_tick_seconds") &&
			!strings.Contains(line, "cpi2_correlation_seconds") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// detRun builds a busy cluster — search tree, quiet service, batch,
// restarting MapReduce, heavy antagonists, with both §9 automation
// loops armed — and runs it for warm+dur at the given worker count,
// returning the JSON fingerprint of everything that happened. The
// identifier argument selects the antagonist-identification algorithm
// ("" = the correlation default).
func detRun(t *testing.T, workers, machines int, warm, dur time.Duration, identifier string) []byte {
	t.Helper()
	ev := obs.NewEventLog(1<<16, nil)
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:                 1234,
		Machines:             machines,
		CPUsPerMachine:       16,
		PlatformBFraction:    0.3,
		Workers:              workers,
		Params:               core.Params{MinSamplesPerTask: 5, Identifier: identifier},
		AutoAvoidThreshold:   3,
		AutoMigrateAfterCaps: 3,
		Registry:             reg,
		Events:               ev,
	})
	defer c.Close()
	defs, tree := WebSearchJob("websearch", machines, machines/5+1, 2, c.RNG())
	for _, d := range defs {
		if err := c.AddJob(d); err != nil {
			t.Fatal(err)
		}
	}
	c.OnTick(func(time.Time) { tree.EndTick() })
	if err := c.AddJob(QuietServiceJob("bigtable", machines, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(BatchJob("logproc", machines/2, 0.5, model.PriorityBestEffort)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(MapReduceJob("mapreduce", machines/2, 2, workload.ReactLameDuck)); err != nil {
		t.Fatal(err)
	}
	// Finite restarting batch tasks (~40 s each) keep the commit-phase
	// exit/re-place path busy for the whole run, so the fingerprint also
	// covers mid-run scheduling decisions.
	churn := BatchJob("churn", 4, 1, model.PriorityBatch)
	churn.RestartOnExit = true
	churn.NewWorkload = func(id model.TaskID, _ *stats.RNG) machine.Workload {
		b := workload.NewBatch(1, 4, 2.6)
		b.TotalTx = 100
		b.InstructionsPerTx = 1e9
		return b
	}
	if err := c.AddJob(churn); err != nil {
		t.Fatal(err)
	}
	if _, err := WarmUpSpecs(c, warm); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", machines/4+1, 7, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	c.Run(dur)

	var fp fingerprint
	fp.Incidents = c.Incidents()
	fp.Events = ev.Recent(0, "")
	fp.Specs = c.RecomputeSpecs()
	fp.Exits, fp.Restarts = c.Stats()
	fp.Received, fp.Dropped = c.Bus().Stats()
	fp.AvoidPairs, fp.Migrations = c.AutoActions()
	cm, am := core.NewMetrics(reg), agent.NewMetrics(reg)
	fp.MetricSamples = cm.SamplesObserved.Value()
	fp.MetricAnomalies = cm.Anomalies.Value()
	fp.MetricAnalyses = cm.AnalysesRun.Value()
	fp.MetricCaps = cm.CapsApplied.Value()
	fp.MetricTasks = am.Tasks.Value()
	fp.SpansByStage = c.SpanCounts()
	fp.SampleToSpecN, fp.SampleToSpecSum = cm.SampleToSpec.Count(), cm.SampleToSpec.Sum()
	fp.DetectToCapN, fp.DetectToCapSum = cm.DetectToCap.Count(), cm.DetectToCap.Sum()
	fp.SpecStalenessN, fp.SpecStalenessSum = cm.SpecStaleness.Count(), cm.SpecStaleness.Sum()
	fp.MetricsText = simTimeMetrics(reg)
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStepDeterminismAcrossWorkerCounts is the headline guarantee of
// the parallel stepper: the same seed produces byte-identical
// incidents, spec tables, and counters at ANY worker count. It runs
// the same busy cluster serially (Workers=1), at Workers=4, and at
// Workers=GOMAXPROCS, and byte-compares the JSON fingerprints. Run
// under -race in CI, this doubles as the race check for the parallel
// phase.
func TestStepDeterminismAcrossWorkerCounts(t *testing.T) {
	machines, warm, dur := 50, 15*time.Minute, 2*time.Hour
	if testing.Short() {
		machines, warm, dur = 12, 12*time.Minute, 25*time.Minute
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	base := detRun(t, counts[0], machines, warm, dur, "")
	if len(base) == 0 {
		t.Fatal("empty fingerprint")
	}
	for _, w := range counts[1:] {
		got := detRun(t, w, machines, warm, dur, "")
		if string(got) != string(base) {
			t.Errorf("workers=%d fingerprint differs from workers=1\nworkers=1: %.200s…\nworkers=%d: %.200s…",
				w, base, w, got)
		}
	}
	var fp fingerprint
	if err := json.Unmarshal(base, &fp); err != nil {
		t.Fatal(err)
	}
	// The run must actually exercise the interesting machinery, or the
	// comparison proves nothing.
	if len(fp.Incidents) == 0 {
		t.Error("determinism run raised no incidents")
	}
	if len(fp.Events) == 0 {
		t.Error("determinism run emitted no structured events")
	}
	if len(fp.Specs) == 0 {
		t.Error("determinism run produced no specs")
	}
	if fp.Exits == 0 || fp.Restarts == 0 {
		t.Errorf("determinism run saw no churn: exits=%d restarts=%d", fp.Exits, fp.Restarts)
	}
	if fp.MetricSamples == 0 || fp.MetricAnalyses == 0 {
		t.Errorf("local metric sets drained nothing: samples=%v analyses=%v",
			fp.MetricSamples, fp.MetricAnalyses)
	}
	for _, stage := range []string{trace.StageSample, trace.StageIngest, trace.StageSpecBuild,
		trace.StageSpecPush, trace.StageSpecRecv, trace.StageDetect, trace.StageDecision} {
		if fp.SpansByStage[stage] == 0 {
			t.Errorf("no %s spans recorded: tracing not exercised", stage)
		}
	}
	if fp.SampleToSpecN == 0 || fp.SpecStalenessN == 0 || fp.DetectToCapN == 0 {
		t.Errorf("reaction-time SLIs unobserved: sample_to_spec=%d staleness=%d detect_to_cap=%d",
			fp.SampleToSpecN, fp.SpecStalenessN, fp.DetectToCapN)
	}
	for _, want := range []string{"cpi2_spec_staleness_seconds_bucket{le=", `cpi2_incidents_total{action="cap"}`,
		"cpi2_pipeline_samples_total", "cpi2_agent_tasks"} {
		if !strings.Contains(fp.MetricsText, want) {
			t.Errorf("compared /metrics text has no %s line", want)
		}
	}
}

// TestCommitPhaseSerial pins down the documented contract that
// forensics Store.Add, §9 automation, and OnTick callbacks run only
// from the serial commit phase: the OnTick callback below mutates
// plain unsynchronized state and queries the forensics store while
// machines tick with a full worker pool. Under -race (CI tier 1) any
// violation of the serial-commit contract is a test failure here.
func TestCommitPhaseSerial(t *testing.T) {
	c := New(Config{
		Seed: 7, Machines: 8, CPUsPerMachine: 16,
		Workers: 4 * runtime.GOMAXPROCS(0), // oversubscribed on purpose
		Params:  core.Params{MinSamplesPerTask: 5},
	})
	if err := c.AddJob(QuietServiceJob("svc", 16, 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddJob(AntagonistJob("video", 4, 8, model.PriorityBatch)); err != nil {
		t.Fatal(err)
	}
	ticks := 0         // unsynchronized: safe only if OnTick is serial
	incidentsSeen := 0 // reads cluster state mid-run
	c.OnTick(func(now time.Time) {
		ticks++
		incidentsSeen = c.Store().Len()
	})
	if _, err := WarmUpSpecs(c, 12*time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Minute)
	want := int((12*time.Minute + 10*time.Minute) / time.Second)
	if ticks != want {
		t.Errorf("OnTick ran %d times, want %d", ticks, want)
	}
	if incidentsSeen != c.Store().Len() {
		t.Errorf("store len changed after last tick: %d vs %d", incidentsSeen, c.Store().Len())
	}
}
