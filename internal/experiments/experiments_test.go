package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// The tests in this file are the reproduction's regression suite: each
// asserts the *shape* of a paper result — who wins, which direction a
// relationship points, where a threshold falls — with tolerances wide
// enough for the scaled-down default runs.

func mustRun(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := Run(id, Options{Seed: 1, Scale: 0.1})
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	return rep
}

func metric(t *testing.T, rep *Report, name string) float64 {
	t.Helper()
	for _, m := range rep.Metrics {
		if m.Name == name {
			return m.Measured
		}
	}
	t.Fatalf("%s: no metric %q", rep.ID, name)
	return 0
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsRegistered(t *testing.T) {
	ids := IDs()
	if len(ids) < 18 {
		t.Fatalf("registered experiments = %d", len(ids))
	}
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "fig7", "tab2",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"sec7rate", "fig14", "fig15", "fig16"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestReportRendering(t *testing.T) {
	rep := mustRun(t, "tab2")
	out := rep.String()
	for _, want := range []string{"tab2", "paper:", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if m := rep.Metric("outlier sigma"); m.Measured != 2 || m.Paper != 2 {
		t.Errorf("Metric accessor = %+v", m)
	}
	if m := rep.Metric("nonexistent"); m.Name != "" {
		t.Error("missing metric should be zero-valued")
	}
}

func TestFig1Shape(t *testing.T) {
	rep := mustRun(t, "fig1")
	med := metric(t, rep, "median tasks/machine")
	if med < 5 || med > 60 {
		t.Errorf("median tasks/machine = %v, want tens", med)
	}
	if th := metric(t, rep, "median threads/machine"); th < 100 {
		t.Errorf("median threads = %v, want hundreds+", th)
	}
}

func TestFig2TPSTracksIPS(t *testing.T) {
	rep := mustRun(t, "fig2")
	if r := metric(t, rep, "TPS/IPS correlation"); r < 0.9 {
		t.Errorf("TPS/IPS r = %v, want ≥0.9 (paper 0.97)", r)
	}
}

func TestFig3LatencyTracksCPI(t *testing.T) {
	rep := mustRun(t, "fig3")
	if r := metric(t, rep, "latency/CPI correlation"); r < 0.9 {
		t.Errorf("latency/CPI r = %v, want ≥0.9 (paper 0.97)", r)
	}
}

func TestFig4TierOrdering(t *testing.T) {
	rep := mustRun(t, "fig4")
	leaf := metric(t, rep, "leaf correlation")
	root := metric(t, rep, "root correlation")
	if leaf < 0.6 {
		t.Errorf("leaf correlation = %v, want strong", leaf)
	}
	if root > 0.45 {
		t.Errorf("root correlation = %v, want poor (paper: poor)", root)
	}
	if root >= leaf {
		t.Error("root should correlate worse than leaf")
	}
}

func TestFig5DiurnalCV(t *testing.T) {
	rep := mustRun(t, "fig5")
	cv := metric(t, rep, "coefficient of variation")
	if cv < 0.01 || cv > 0.08 {
		t.Errorf("CV = %v, want a few percent (paper 4%%)", cv)
	}
	if swing := metric(t, rep, "peak/trough ratio"); swing < 1.03 {
		t.Errorf("no visible diurnal swing: %v", swing)
	}
}

func TestTable1Specs(t *testing.T) {
	rep := mustRun(t, "tab1")
	rows := []struct {
		name string
		mu   float64
		sd   float64
	}{
		{"jobA", 0.88, 0.09},
		{"jobB", 1.36, 0.26},
		{"jobC", 2.03, 0.20},
	}
	for _, r := range rows {
		mu := metric(t, rep, r.name+" mean")
		sd := metric(t, rep, r.name+" stddev")
		if math.Abs(mu-r.mu) > 0.12*r.mu {
			t.Errorf("%s mean = %v, want ≈%v", r.name, mu, r.mu)
		}
		if math.Abs(sd-r.sd) > 0.5*r.sd {
			t.Errorf("%s stddev = %v, want ≈%v", r.name, sd, r.sd)
		}
	}
}

func TestFig7GEVWins(t *testing.T) {
	rep := mustRun(t, "fig7")
	if m := rep.Metric("WARNING best fit not GEV"); m.Name != "" {
		t.Errorf("best fit was %s, want gev", m.Note)
	}
	mean := metric(t, rep, "mean CPI")
	if math.Abs(mean-1.8) > 0.2 {
		t.Errorf("mean CPI = %v, want ≈1.8", mean)
	}
	xi := metric(t, rep, "GEV ξ")
	if xi > 0.05 {
		t.Errorf("GEV ξ = %v, want ≤0 (bounded right tail family)", xi)
	}
}

func TestTab2Defaults(t *testing.T) {
	rep := mustRun(t, "tab2")
	for _, m := range rep.Metrics {
		if m.Paper != 0 && math.Abs(m.Measured-m.Paper) > 1e-9 {
			t.Errorf("parameter %q = %v, want %v", m.Name, m.Measured, m.Paper)
		}
	}
}

func TestFig8Case1(t *testing.T) {
	rep := mustRun(t, "fig8")
	if m := rep.Metric("WARNING wrong top suspect"); m.Name != "" {
		t.Fatalf("wrong top suspect: %s", m.Note)
	}
	if n := metric(t, rep, "batch jobs in top 5"); n != 1 {
		t.Errorf("batch in top 5 = %v, want exactly 1", n)
	}
	corr := metric(t, rep, "top suspect corr")
	if corr < 0.35 || corr > 0.8 {
		t.Errorf("top suspect corr = %v, want clearly above threshold", corr)
	}
	cpi := metric(t, rep, "victim CPI at detection")
	if cpi < 3.5 || cpi > 7.5 {
		t.Errorf("victim CPI = %v, want ≈5", cpi)
	}
}

func TestFig9CappingHelps(t *testing.T) {
	rep := mustRun(t, "fig9")
	before := metric(t, rep, "victim CPI before cap")
	during := metric(t, rep, "victim CPI during cap")
	after := metric(t, rep, "victim CPI after cap")
	if during >= before {
		t.Errorf("capping did not help: %v → %v", before, during)
	}
	ratio := during / before
	if ratio < 0.3 || ratio > 0.75 {
		t.Errorf("improvement ratio = %v, want ≈0.5", ratio)
	}
	if after <= during*1.1 {
		t.Errorf("CPI did not rebound after cap: during %v, after %v", during, after)
	}
}

func TestFig10NoFalseAlarm(t *testing.T) {
	rep := mustRun(t, "fig10")
	if caps := metric(t, rep, "caps applied"); caps != 0 {
		t.Errorf("caps = %v, want 0 (self-inflicted pattern)", caps)
	}
	if maxCPI := metric(t, rep, "max victim CPI"); maxCPI < 8 || maxCPI > 12 {
		t.Errorf("max CPI = %v, want ≈10", maxCPI)
	}
	if minCPI := metric(t, rep, "min victim CPI"); minCPI < 2.5 || minCPI > 4 {
		t.Errorf("min CPI = %v, want ≈3", minCPI)
	}
}

func TestFig11ModestRelief(t *testing.T) {
	rep := mustRun(t, "fig11")
	if m := rep.Metric("WARNING capped wrong task"); m.Name != "" {
		t.Fatalf("capped wrong task: %s", m.Note)
	}
	if n := metric(t, rep, "throttleable among them"); n != 1 {
		t.Errorf("throttleable suspects = %v, want 1", n)
	}
	rel := metric(t, rep, "relative CPI")
	if rel < 0.6 || rel > 0.95 {
		t.Errorf("relative CPI = %v, want modest relief ≈0.8", rel)
	}
}

func TestFig12LameDuck(t *testing.T) {
	rep := mustRun(t, "fig12")
	if n := metric(t, rep, "caps applied"); n != 2 {
		t.Errorf("caps = %v, want 2", n)
	}
	if b := metric(t, rep, "burst threads"); b < 70 {
		t.Errorf("burst threads = %v, want ≈80", b)
	}
	if l := metric(t, rep, "lame-duck threads"); l != 2 {
		t.Errorf("lame-duck threads = %v, want 2", l)
	}
	if f := metric(t, rep, "final threads"); f != 8 {
		t.Errorf("final threads = %v, want 8", f)
	}
}

func TestFig13ExitsOnSecondCap(t *testing.T) {
	rep := mustRun(t, "fig13")
	if got := metric(t, rep, "worker exited"); got != 1 {
		t.Error("worker did not exit")
	}
	if got := metric(t, rep, "capping episodes endured"); got != 2 {
		t.Errorf("episodes = %v, want 2", got)
	}
}

// TestFig13ExitedWorkerLeavesAgent: once the ReactExit worker has left
// Case 6's machine, its agent holds no cap on it and no longer wants
// its job's spec — the machine tick's exited list reaches the agent.
func TestFig13ExitedWorkerLeavesAgent(t *testing.T) {
	r, _, worker := newFig13Rig(1)
	r.run(70 * time.Minute)
	if r.m.Task(worker) != nil {
		t.Fatal("worker still on the machine; the test is vacuous")
	}
	caps := r.a.Manager().ActiveCaps()
	if _, ok := caps[worker]; ok {
		t.Errorf("worker still capped after it exited: %v", caps)
	}
	if key := (model.SpecKey{Job: worker.Job, Platform: r.m.Platform()}); r.a.WantSpec(key) {
		t.Errorf("agent still wants %v after its only task exited", key)
	}
}

func TestSec7Rate(t *testing.T) {
	rep := mustRun(t, "sec7rate")
	rate := metric(t, rep, "reports/machine-day")
	// Order-of-magnitude target around the paper's 0.37.
	if rate < 0.02 || rate > 4 {
		t.Errorf("report rate = %v, want same order as 0.37", rate)
	}
}

func TestFig14LoadIndependence(t *testing.T) {
	rep := mustRun(t, "fig14")
	if r := math.Abs(metric(t, rep, "corr(util, antagonist corr)")); r > 0.45 {
		t.Errorf("|corr(util, corr)| = %v, want weak", r)
	}
	if r := math.Abs(metric(t, rep, "corr(util, victim rel CPI)")); r > 0.45 {
		t.Errorf("|corr(util, relCPI)| = %v, want weak", r)
	}
	with := metric(t, rep, "median rel CPI with antagonist")
	without := metric(t, rep, "median rel CPI without")
	if with <= without+0.1 {
		t.Errorf("antagonist presence invisible: %v vs %v", with, without)
	}
	if math.Abs(without-1) > 0.15 {
		t.Errorf("baseline rel CPI = %v, want ≈1", without)
	}
}

func TestFig15Accuracy(t *testing.T) {
	rep := mustRun(t, "fig15")
	prodTP := metric(t, rep, "prod TP rate @0.35")
	nonTP := metric(t, rep, "non-prod TP rate @0.35")
	if prodTP < 0.6 {
		t.Errorf("prod TP = %v, want ≥0.6 (paper ≈0.7+)", prodTP)
	}
	if nonTP >= prodTP {
		t.Errorf("non-prod TP %v ≥ prod TP %v; paper: prod much better", nonTP, prodTP)
	}
	prodRel := metric(t, rep, "prod relative CPI (TP)")
	if prodRel < 0.25 || prodRel > 0.75 {
		t.Errorf("prod relative CPI = %v, want ≈0.52", prodRel)
	}
	if r := metric(t, rep, "corr(rel L3 MPI, rel CPI)"); r < 0.6 {
		t.Errorf("L3 MPI correlation = %v, want strong (paper 0.87)", r)
	}
}

func TestFig16ProductionBenefit(t *testing.T) {
	rep := mustRun(t, "fig16")
	if tp := metric(t, rep, "TP rate @0.35"); tp < 0.6 {
		t.Errorf("TP rate = %v, want ≥0.6", tp)
	}
	low := metric(t, rep, "TP rate, smallest σ tercile")
	high := metric(t, rep, "TP rate, largest σ tercile")
	if high < low {
		t.Errorf("TP rate not rising with CPI increase: %v vs %v", low, high)
	}
	med := metric(t, rep, "median relative CPI")
	if med < 0.2 || med >= 1 {
		t.Errorf("median relative CPI = %v, want clearly below 1 (paper 0.63)", med)
	}
}

func TestDeterministicReports(t *testing.T) {
	a, err := Run("fig9", Options{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig9", Options{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different reports")
	}
}
