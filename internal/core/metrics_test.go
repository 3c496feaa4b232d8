package core

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

// instrumentedFixture is managerFixture plus a registry and event log
// wired in.
func instrumentedFixture(t *testing.T) (*Manager, *Metrics, *obs.EventLog) {
	t.Helper()
	m, _ := managerFixture(t)
	reg := obs.NewRegistry()
	mm := NewMetrics(reg)
	events := obs.NewEventLog(64, nil)
	m.SetMetrics(mm)
	m.SetEvents(events)
	return m, mm, events
}

func TestManagerMetricsEndToEnd(t *testing.T) {
	m, mm, events := instrumentedFixture(t)
	samples, nIncidents := 0, 0
	for min := 0; min < 10; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		if feed(m, "search", 0, min, 1.2, 3.0) != nil {
			nIncidents++
		}
		samples += 2
	}
	if got := mm.SamplesObserved.Value(); got != float64(samples) {
		t.Errorf("samples observed = %v, want %d", got, samples)
	}
	if mm.Outliers.Value() == 0 {
		t.Error("no outliers counted despite CPI 3.0 against spec 1.0±0.1")
	}
	if mm.Anomalies.Value() == 0 {
		t.Error("no anomalies counted")
	}
	if mm.AnalysesRun.Value() == 0 {
		t.Error("no analyses counted")
	}
	if mm.CapsApplied.Value() != 1 {
		t.Errorf("caps applied = %v, want 1", mm.CapsApplied.Value())
	}
	if mm.CapsActive.Value() != 1 {
		t.Errorf("caps active = %v, want 1", mm.CapsActive.Value())
	}
	var vecTotal float64
	for _, action := range []string{"none", "report", "cap"} {
		vecTotal += mm.Incidents.With(action).Value()
	}
	if vecTotal != float64(nIncidents) {
		t.Errorf("incident counter = %v, want %d (incidents Observe returned)", vecTotal, nIncidents)
	}

	// Expiry moves active → expired.
	m.Tick(day0.Add(time.Hour))
	if mm.CapsActive.Value() != 0 || mm.CapsExpired.Value() != 1 {
		t.Errorf("after expiry: active=%v expired=%v", mm.CapsActive.Value(), mm.CapsExpired.Value())
	}

	// Event stream carries the same incidents, JSON-serialisable.
	incEvents := events.Recent(0, "incident")
	if len(incEvents) != nIncidents {
		t.Errorf("incident events = %d, want %d", len(incEvents), nIncidents)
	}
	if len(events.Recent(0, "cap_applied")) != 1 || len(events.Recent(0, "cap_expired")) != 1 {
		t.Error("cap lifecycle events missing")
	}
	if _, err := json.Marshal(incEvents); err != nil {
		t.Errorf("incident events not JSON-serialisable: %v", err)
	}
}

func TestManagerMetricsRateLimited(t *testing.T) {
	p := DefaultParams()
	p.AnalysisRateLimit = 10 * time.Minute
	capper := newFakeCapper()
	m := NewManager("m", p, capper)
	reg := obs.NewRegistry()
	mm := NewMetrics(reg)
	m.SetMetrics(mm)
	m.RegisterJob(victimJob)
	m.RegisterJob(model.Job{Name: "mapreduce", Class: model.ClassBatch, Priority: model.PriorityBatch})
	m.UpdateSpec(model.Spec{
		Job: "search", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 300, CPIMean: 1.0, CPIStddev: 0.1,
	})
	for min := 0; min < 9; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		feed(m, "search", 0, min, 1.2, 3.0)
	}
	if mm.AnalysesRun.Value() != 1 {
		t.Errorf("analyses = %v, want 1", mm.AnalysesRun.Value())
	}
	if mm.AnalysesRateLimited.Value() == 0 {
		t.Error("rate-limited analyses not counted")
	}
}

func TestIncidentRecordSchema(t *testing.T) {
	m, _, _ := instrumentedFixture(t)
	var incs []Incident
	for min := 0; min < 6; min++ {
		feed(m, "mapreduce", 0, min, 4.0, 1.5)
		if inc := feed(m, "search", 0, min, 1.2, 3.0); inc != nil {
			incs = append(incs, *inc)
		}
	}
	if len(incs) == 0 {
		t.Fatal("no incidents")
	}
	recs := IncidentRecords(incs)
	var capRec *IncidentRecord
	for i := range recs {
		if recs[i].Action == "cap" {
			capRec = &recs[i]
		}
	}
	if capRec == nil {
		t.Fatal("no cap incident record")
	}
	if capRec.Victim != "search/0" || capRec.Target != "mapreduce/0" {
		t.Errorf("record = %+v", capRec)
	}
	if capRec.Quota <= 0 || capRec.Until == nil {
		t.Errorf("cap fields missing: %+v", capRec)
	}
	if len(capRec.TopSuspects) == 0 || len(capRec.TopSuspects) > maxRecordSuspects {
		t.Errorf("top suspects = %+v", capRec.TopSuspects)
	}
	b, err := json.Marshal(capRec)
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"time", "machine", "victim", "victim_job", "victim_cpi", "threshold", "action", "target", "quota", "reason"} {
		if _, ok := round[key]; !ok {
			t.Errorf("record JSON missing %q: %s", key, b)
		}
	}
}

func TestSpecBuilderMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	mm := NewMetrics(reg)
	b := NewSpecBuilder(Params{MinTasks: 2, MinSamplesPerTask: 2})
	b.SetMetrics(mm)
	for task := 0; task < 3; task++ {
		for i := 0; i < 4; i++ {
			err := b.AddSample(model.Sample{
				Job: "svc", Task: model.TaskID{Job: "svc", Index: task},
				Platform: model.PlatformA, Timestamp: day0.Add(time.Duration(i) * time.Minute),
				CPUUsage: 1, CPI: 1.0,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if mm.SpecBacklog.Value() != 12 {
		t.Errorf("backlog = %v, want 12", mm.SpecBacklog.Value())
	}
	specs := b.Recompute(day0.Add(time.Hour))
	if len(specs) != 1 {
		t.Fatalf("specs = %+v", specs)
	}
	if mm.SpecsComputed.Value() != 1 {
		t.Errorf("specs computed = %v, want 1", mm.SpecsComputed.Value())
	}
	if mm.SpecBacklog.Value() != 0 {
		t.Errorf("backlog after recompute = %v, want 0", mm.SpecBacklog.Value())
	}
}

// TestSpecBacklogSumsAcrossBuilders: builders sharing one metric set
// (the shards of a sim, or of one registry) report the sum of their
// backlogs through every way a backlog changes — fold, recompute,
// restore, handoff and uninstrumenting.
func TestSpecBacklogSumsAcrossBuilders(t *testing.T) {
	mm := NewMetrics(obs.NewRegistry())
	feed := func(b *SpecBuilder, job model.JobName, n int) {
		for i := 0; i < n; i++ {
			err := b.AddSample(model.Sample{
				Job: job, Task: model.TaskID{Job: job, Index: i},
				Platform: model.PlatformA, Timestamp: day0, CPUUsage: 1, CPI: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(step string, n float64) {
		t.Helper()
		if got := mm.SpecBacklog.Value(); got != n {
			t.Errorf("%s: backlog = %v, want %v", step, got, n)
		}
	}
	a, b := NewSpecBuilder(Params{}), NewSpecBuilder(Params{})
	a.SetMetrics(mm)
	b.SetMetrics(mm)
	feed(a, "x", 5)
	feed(b, "y", 3)
	want("fold", 8)
	a.Recompute(day0.Add(time.Minute))
	want("one builder recomputes", 3)
	a = NewSpecBuilder(Params{})
	a.SetMetrics(mm)
	if err := a.ImportCheckpoint(b.Checkpoint(day0)); err != nil {
		t.Fatal(err)
	}
	want("restore a copy of the other's state", 6)
	c := NewSpecBuilder(Params{})
	c.SetMetrics(mm)
	if err := c.ImportCheckpoint(a.ExportKeys(a.Keys(), day0)); err != nil {
		t.Fatal(err)
	}
	want("handoff", 6)
	c.SetMetrics(nil)
	want("uninstrument", 3)
	b.Recompute(day0.Add(time.Minute))
	want("both recomputed", 0)
}

// TestLocalMetricsDrainTo checks the local → shared fold the cluster's
// commit phase performs on a staged copy of the core set: counters, a
// reaction-time histogram, the labelled incident vec, and the
// active-caps gauge delta all land in the registered series, and the
// local set is empty afterwards. (That no field is left out is checked
// by the test of the same name in internal/agent.)
func TestLocalMetricsDrainTo(t *testing.T) {
	reg := obs.NewRegistry()
	shared := NewMetrics(reg)
	local, drain, _ := obs.Stage(shared)

	local.SamplesObserved.Add(10)
	local.Outliers.Inc()
	local.Anomalies.Inc()
	local.DetectToCap.Observe(30)
	local.DetectToCap.Observe(90)
	local.Incidents.With("cap").Inc()
	local.Incidents.With("none").Add(2)
	local.CapsApplied.Inc()
	local.CapsActive.Inc()

	drain()

	if got := shared.SamplesObserved.Value(); got != 10 {
		t.Errorf("SamplesObserved = %v, want 10", got)
	}
	if got := shared.DetectToCap.Count(); got != 2 {
		t.Errorf("DetectToCap count = %v, want 2", got)
	}
	if got := shared.Incidents.With("cap").Value(); got != 1 {
		t.Errorf(`Incidents{action="cap"} = %v, want 1`, got)
	}
	if got := shared.Incidents.With("none").Value(); got != 2 {
		t.Errorf(`Incidents{action="none"} = %v, want 2`, got)
	}
	if got := shared.CapsActive.Value(); got != 1 {
		t.Errorf("CapsActive = %v, want 1", got)
	}
	if got := local.SamplesObserved.Value(); got != 0 {
		t.Errorf("local SamplesObserved after drain = %v, want 0", got)
	}
	if got := local.DetectToCap.Count(); got != 0 {
		t.Errorf("local DetectToCap after drain = %v, want 0", got)
	}

	// A capped task releasing later decrements the local; the delta
	// drain keeps the shared gauge consistent.
	local.CapsActive.Dec()
	local.CapsExpired.Inc()
	drain()
	if got := shared.CapsActive.Value(); got != 0 {
		t.Errorf("CapsActive after release drain = %v, want 0", got)
	}
	if got := shared.CapsExpired.Value(); got != 1 {
		t.Errorf("CapsExpired = %v, want 1", got)
	}
}

// TestManagerOnLocalMetrics runs a manager against a local set and
// checks observations are all recoverable through a drain — i.e. a
// manager on staged metrics loses nothing relative to direct registry
// instrumentation.
func TestManagerOnLocalMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	shared := NewMetrics(reg)
	local, drain, _ := obs.Stage(shared)
	m := NewManager("m0", Params{}, newFakeCapper())
	m.SetMetrics(local)

	day0 := time.Date(2011, 11, 1, 0, 0, 0, 0, time.UTC)
	task := model.TaskID{Job: "j", Index: 0}
	for i := 0; i < 5; i++ {
		m.Observe(model.Sample{
			Job: "j", Task: task, Platform: model.PlatformA,
			Timestamp: day0.Add(time.Duration(i) * time.Minute),
			CPUUsage:  1, CPI: 1.2, Machine: "m0",
		})
	}
	drain()
	if got := shared.SamplesObserved.Value(); got != 5 {
		t.Errorf("SamplesObserved = %v, want 5", got)
	}
}
