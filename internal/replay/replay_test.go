package replay

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// buildTrace renders a CSV trace of one machine: a victim at CPI 1.0
// that jumps to 3.0 when the antagonist's usage jumps at startMin.
func buildTrace(minutes, startMin int) string {
	var b strings.Builder
	b.WriteString("timestamp,machine,job,task,platform,cpu_usage,cpi\n")
	t0 := time.Date(2011, 5, 16, 2, 0, 0, 0, time.UTC)
	for min := 0; min < minutes; min++ {
		ts := t0.Add(time.Duration(min) * time.Minute).Format(time.RFC3339)
		victimCPI, antagUsage := 1.0, 0.2
		if min >= startMin {
			victimCPI, antagUsage = 3.0, 5.0
		}
		fmt.Fprintf(&b, "%s,m1,frontend,0,%s,1.2,%.2f\n", ts, model.PlatformA, victimCPI)
		fmt.Fprintf(&b, "%s,m1,transcode,0,%s,%.2f,1.5\n", ts, model.PlatformA, antagUsage)
	}
	return b.String()
}

func replayJobs() []model.Job {
	return []model.Job{
		{Name: "frontend", Class: model.ClassLatencySensitive, Priority: model.PriorityProduction},
		{Name: "transcode", Class: model.ClassBatch, Priority: model.PriorityBatch},
	}
}

func frontendSpec() model.Spec {
	return model.Spec{
		Job: "frontend", Platform: model.PlatformA,
		NumSamples: 100000, NumTasks: 500, CPIMean: 1.0, CPIStddev: 0.1,
	}
}

func TestParseSamples(t *testing.T) {
	samples, err := ParseSamples(strings.NewReader(buildTrace(5, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Job != "frontend" && samples[0].Job != "transcode" {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	// Sorted by time.
	for i := 1; i < len(samples); i++ {
		if samples[i].Timestamp.Before(samples[i-1].Timestamp) {
			t.Fatal("not sorted")
		}
	}
}

func TestParseSamplesColumnOrderIndependent(t *testing.T) {
	csv := "cpi,job,task,platform,cpu_usage,machine,timestamp\n" +
		"2.4,websearch,3," + string(model.PlatformA) + ",1.2,m9,2011-05-16T02:00:00Z\n"
	samples, err := ParseSamples(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	if s.CPI != 2.4 || s.Machine != "m9" || s.Task.Index != 3 {
		t.Errorf("sample = %+v", s)
	}
}

func TestParseSamplesErrors(t *testing.T) {
	cases := []string{
		"",                    // no header
		"nope,columns\n1,2\n", // missing columns
		"timestamp,machine,job,task,platform,cpu_usage,cpi\nBAD,m,j,0,p,1,1\n",                       // bad time
		"timestamp,machine,job,task,platform,cpu_usage,cpi\n2011-05-16T02:00:00Z,m,j,X,p,1,1\n",      // bad index
		"timestamp,machine,job,task,platform,cpu_usage,cpi\n2011-05-16T02:00:00Z,m,j,0,p,NaNope,1\n", // bad usage
		"timestamp,machine,job,task,platform,cpu_usage,cpi\n2011-05-16T02:00:00Z,m,j,0,p,1,x\n",      // bad cpi
		"timestamp,machine,job,task,platform,cpu_usage,cpi\n2011-05-16T02:00:00Z,m,,0,p,1,1\n",       // invalid sample
	}
	for i, c := range cases {
		if _, err := ParseSamples(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestParseSamplesRefusesNonFinite: a NaN or Inf cell parses as a
// float, so only the sample validator stops it; one let through
// poisons the mean and σ of every spec LearnSpecs folds it into.
func TestParseSamplesRefusesNonFinite(t *testing.T) {
	trace := buildTrace(3, 99) // lines 2-7
	lines := strings.Split(trace, "\n")
	for _, c := range []struct {
		line   int
		row    string
		reason string
	}{
		{4, "2011-05-16T02:01:00Z,m1,frontend,0," + string(model.PlatformA) + ",1.2,NaN", "non_finite_cpi"},
		{7, "2011-05-16T02:02:00Z,m1,transcode,0," + string(model.PlatformA) + ",0.2,+Inf", "non_finite_cpi"},
		{2, "2011-05-16T02:00:00Z,m1,frontend,0," + string(model.PlatformA) + ",NaN,1.0", "non_finite_usage"},
		{5, "2011-05-16T02:01:00Z,m1,transcode,0," + string(model.PlatformA) + ",-Inf,1.5", "non_finite_usage"},
	} {
		bad := append([]string(nil), lines...)
		bad[c.line-1] = c.row
		_, err := ParseSamples(strings.NewReader(strings.Join(bad, "\n")))
		if err == nil {
			t.Errorf("line %d %q accepted", c.line, c.row)
			continue
		}
		if want := fmt.Sprintf("line %d: invalid sample: %s", c.line, c.reason); !strings.Contains(err.Error(), want) {
			t.Errorf("line %d: err = %v, want it to contain %q", c.line, err, want)
		}
	}
}

func TestReplayFindsIncidents(t *testing.T) {
	samples, err := ParseSamples(strings.NewReader(buildTrace(20, 8)))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(samples, replayJobs(), []model.Spec{frontendSpec()}, core.DefaultParams())
	if res.SamplesReplayed != 40 {
		t.Errorf("replayed = %d", res.SamplesReplayed)
	}
	if len(res.Machines) != 1 || res.Machines[0] != "m1" {
		t.Errorf("machines = %v", res.Machines)
	}
	if len(res.Incidents) == 0 {
		t.Fatal("no incidents from a trace with obvious interference")
	}
	inc := res.Incidents[0]
	if inc.Victim.Job != "frontend" {
		t.Errorf("victim = %v", inc.Victim)
	}
	if len(inc.Suspects) == 0 || inc.Suspects[0].Task.Job != "transcode" {
		t.Fatalf("suspects = %+v", inc.Suspects)
	}
	if inc.Decision.Action != core.ActionCap {
		t.Errorf("decision = %+v (replay records what enforcement would do)", inc.Decision)
	}
	// Anomaly begins at minute 8; 3 violations → detection ≈ minute 10.
	delay := inc.Time.Sub(time.Date(2011, 5, 16, 2, 8, 0, 0, time.UTC))
	if delay < 0 || delay > 5*time.Minute {
		t.Errorf("detection delay = %v", delay)
	}
}

func TestReplayHealthyTraceIsQuiet(t *testing.T) {
	samples, err := ParseSamples(strings.NewReader(buildTrace(20, 99)))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(samples, replayJobs(), []model.Spec{frontendSpec()}, core.DefaultParams())
	if len(res.Incidents) != 0 {
		t.Errorf("incidents on a healthy trace: %d", len(res.Incidents))
	}
}

// TestReplayUnknownJobsAreNeverCapped: with no job metadata every task
// is latency-sensitive, as the package promises — the victim is still
// analysed, but no suspect is throttleable.
func TestReplayUnknownJobsAreNeverCapped(t *testing.T) {
	samples, err := ParseSamples(strings.NewReader(buildTrace(20, 8)))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(samples, nil, []model.Spec{frontendSpec()}, core.DefaultParams())
	if len(res.Incidents) == 0 {
		t.Fatal("no incidents from a trace with obvious interference")
	}
	for _, inc := range res.Incidents {
		if inc.Decision.Action == core.ActionCap {
			t.Errorf("%v: capped %v, a task of a job with no metadata", inc.Time, inc.Decision.Target)
		}
	}
}

func TestReplaySkipsMachinelessSamples(t *testing.T) {
	samples := []model.Sample{{
		Job: "j", Task: model.TaskID{Job: "j"}, Platform: model.PlatformA,
		Timestamp: time.Now(), CPUUsage: 1, CPI: 1,
	}}
	res := Run(samples, nil, nil, core.DefaultParams())
	if res.SamplesSkipped != 1 || res.SamplesReplayed != 0 {
		t.Errorf("skip accounting = %+v", res)
	}
}

func TestLearnSpecsFromTrace(t *testing.T) {
	// A 10-task job with 150 minutes of data clears the gates with a
	// lowered per-task threshold.
	var b strings.Builder
	b.WriteString("timestamp,machine,job,task,platform,cpu_usage,cpi\n")
	t0 := time.Date(2011, 5, 16, 0, 0, 0, 0, time.UTC)
	for min := 0; min < 150; min++ {
		for task := 0; task < 10; task++ {
			fmt.Fprintf(&b, "%s,m%d,svc,%d,%s,1.0,%.3f\n",
				t0.Add(time.Duration(min)*time.Minute).Format(time.RFC3339),
				task%4, task, model.PlatformA, 1.5+0.01*float64(task%5))
		}
	}
	samples, err := ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{MinSamplesPerTask: 100}
	specs := LearnSpecs(samples, params)
	if len(specs) != 1 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].CPIMean < 1.4 || specs[0].CPIMean > 1.6 {
		t.Errorf("learned mean = %v", specs[0].CPIMean)
	}
	if specs[0].NumTasks != 10 {
		t.Errorf("tasks = %d", specs[0].NumTasks)
	}
}
