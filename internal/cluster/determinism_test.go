package cluster

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

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
// correlations and cap quotas), the full spec table, churn counters
// and pipeline counters. Byte-comparing
// two fingerprints therefore checks float-exact equality, not "close
// enough".
type fingerprint struct {
	Incidents []core.Incident
	Events    []obs.Event
	Specs     []model.Spec
	Exits     int64
	Restarts  int64
	Received  int64
	Dropped   int64
	// Shared registry series fed by the per-machine local metric sets.
	// The commit phase drains them in machine-index order, so these float
	// sums must be bit-identical at any worker count.
	MetricSamples   float64
	MetricAnomalies float64
	MetricAnalyses  float64
	MetricCaps      float64
	// Causal-tracing surface: per-stage span counts summed across every
	// store, and the count+sum of the reaction-time SLI histograms. All
	// of it is simulation-time data — trace IDs are content hashes and
	// the SLIs observe sim-clock durations — so it must be bit-identical
	// at any worker count, with tracing always on.
	SpansByStage     map[string]uint64
	SampleToSpecN    uint64
	SampleToSpecSum  float64
	DetectToCapN     uint64
	DetectToCapSum   float64
	SpecStalenessN   uint64
	SpecStalenessSum float64
	// The whole /metrics page, as an operator would scrape it: every
	// family and series that exists, every bucket, every float sum, in
	// render order. Nothing is left out — the simulated components read
	// no wall clock, so nothing on the page measures the host.
	MetricsText string
}

// detRun builds a busy cluster — search tree, quiet service, batch,
// restarting MapReduce, heavy antagonists — and runs it for warm+dur at the given worker count,
// returning the JSON fingerprint of everything that happened. The
// identifier argument selects the antagonist-identification algorithm
// ("" = the correlation default).
func detRun(t *testing.T, workers, machines int, warm, dur time.Duration, identifier string) []byte {
	t.Helper()
	ev := obs.NewEventLog(1<<16, nil)
	reg := obs.NewRegistry()
	c := New(Config{
		Seed:              1234,
		Machines:          machines,
		CPUsPerMachine:    16,
		PlatformBFraction: 0.3,
		Workers:           workers,
		Params:            core.Params{MinSamplesPerTask: 5, Identifier: identifier},
		Registry:          reg,
		Events:            ev,
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
	fp.Received, fp.Dropped = c.PipelineStats()
	cm := core.NewMetrics(reg)
	fp.MetricSamples = cm.SamplesObserved.Value()
	fp.MetricAnomalies = cm.Anomalies.Value()
	fp.MetricAnalyses = cm.AnalysesRun.Value()
	fp.MetricCaps = cm.CapsApplied.Value()
	fp.SpansByStage = c.SpanCounts()
	fp.SampleToSpecN, fp.SampleToSpecSum = cm.SampleToSpec.Count(), cm.SampleToSpec.Sum()
	fp.DetectToCapN, fp.DetectToCapSum = cm.DetectToCap.Count(), cm.DetectToCap.Sum()
	fp.SpecStalenessN, fp.SpecStalenessSum = cm.SpecStaleness.Count(), cm.SpecStaleness.Sum()
	fp.MetricsText = reg.Render()
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConcurrentStepDeterminismAcrossWorkerCounts is the headline
// guarantee of the parallel stepper: the same seed produces
// byte-identical incidents, spec tables, and counters at ANY worker
// count. It runs the same busy cluster serially (Workers=1), at
// Workers=3 (an odd count: uneven chunks, and a claim order that
// changes from run to run), at Workers=4, and at Workers=GOMAXPROCS,
// and byte-compares the JSON fingerprints. Run under -race in CI, this
// doubles as the race check for the parallel phase.
func TestConcurrentStepDeterminismAcrossWorkerCounts(t *testing.T) {
	machines, warm, dur := 50, 15*time.Minute, 2*time.Hour
	if testing.Short() {
		machines, warm, dur = 12, 12*time.Minute, 25*time.Minute
	}
	counts := []int{1, 3, 4, runtime.GOMAXPROCS(0)}
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
		trace.StageSpecPush, trace.StageSpecRecv, trace.StageDetect} {
		if fp.SpansByStage[stage] == 0 {
			t.Errorf("no %s spans recorded: tracing not exercised", stage)
		}
	}
	if fp.SampleToSpecN == 0 || fp.SpecStalenessN == 0 || fp.DetectToCapN == 0 {
		t.Errorf("reaction-time SLIs unobserved: sample_to_spec=%d staleness=%d detect_to_cap=%d",
			fp.SampleToSpecN, fp.SpecStalenessN, fp.DetectToCapN)
	}
	for _, want := range []string{"cpi2_spec_staleness_seconds_bucket{le=", `cpi2_incidents_total{action="cap"}`,
		"cpi2_pipeline_samples_total", "cpi2_caps_active", "cpi2_pipeline_watchers"} {
		if !strings.Contains(fp.MetricsText, want) {
			t.Errorf("compared /metrics text has no %s line", want)
		}
	}
}

// TestConcurrentStagedMetricsRenderAlike: machine k's agent clock runs
// k·10ms/3 ahead, so every spec age it observes has a fraction of a
// second, and cpi2_spec_staleness_seconds_sum depends on the order its
// terms are added in. (The other determinism runs skew by whole seconds
// or not at all; their sums come out the same in any order.) The whole
// /metrics page of a 100-machine fleet must still render byte for byte
// alike at 1, 2 and 4 workers: each agent writes its own staged copy,
// and the commit phase drains the copies in machine order. An agent
// writing the shared set directly adds in whatever order the workers
// run. Without -race about one parallel render in seven still matches
// machine order, so each parallel count renders twice there; under
// -race none of 20 did.
func TestConcurrentStagedMetricsRenderAlike(t *testing.T) {
	const machines = 100
	render := func(workers int) string {
		skews := make([]SkewEvent, machines)
		for k := range skews {
			skews[k] = SkewEvent{Machine: fmt.Sprintf("machine-%04d", k), Offset: time.Duration(k) * 10 * time.Millisecond / 3}
		}
		reg := obs.NewRegistry()
		c := New(Config{
			Seed:           11,
			Machines:       machines,
			CPUsPerMachine: 16,
			Workers:        workers,
			Params:         core.Params{MinSamplesPerTask: 5},
			Registry:       reg,
			Faults:         &FaultPlan{Skews: skews},
		})
		defer c.Close()
		// Eight tasks a machine: the more a window-closing tick observes,
		// the more often two workers' writes interleave.
		for _, d := range []JobDef{
			QuietServiceJob("bigtable", 6*machines, 0.8),
			BatchJob("logproc", 2*machines, 0.5, model.PriorityBestEffort),
		} {
			if err := c.AddJob(d); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := WarmUpSpecs(c, 6*time.Minute); err != nil {
			t.Fatal(err)
		}
		c.Run(10 * time.Minute)
		if n := core.NewMetrics(reg).SpecStaleness.Count(); n == 0 {
			t.Fatalf("workers=%d: no spec age observed", workers)
		}
		return reg.Render()
	}
	base := render(1)
	counts := []int{2, 4, 2, 4}
	if raceEnabled {
		counts = counts[:2]
	}
	for _, w := range counts {
		if got := render(w); got != base {
			t.Errorf("workers=%d: /metrics differs from workers=1\n%s", w, firstDiff(base, got))
		}
	}
}

// firstDiff returns the first line on which a and b differ, from each.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "workers=1: " + al[i] + "\nthis run:  " + bl[i]
		}
	}
	return "one page is a prefix of the other"
}

// TestCommitPhaseSerial pins down the documented contract that
// forensics Store.Add and OnTick callbacks run only
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
